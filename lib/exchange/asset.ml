type money = int

type t = Document of string | Money of money

let document name = Document name

let money amount =
  if amount < 0 then invalid_arg "Asset.money: negative amount";
  Money amount

let dollars d = d * 100

let is_money = function Money _ -> true | Document _ -> false
let is_document = function Document _ -> true | Money _ -> false
let amount = function Money m -> Some m | Document _ -> None
let value = function Money m -> m | Document _ -> 0

let compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Document da, Document db -> String.compare da db
    | Money ma, Money mb -> Int.compare ma mb
    | Document _, Money _ -> -1
    | Money _, Document _ -> 1

let equal a b = a == b || compare a b = 0

(* Rendered as plain strings, printers derived from them: traces render
   every delivered action, and going through [Format.asprintf] dominated
   that cost. *)
let money_to_string m =
  if m mod 100 = 0 then "$" ^ string_of_int (m / 100)
  else Printf.sprintf "$%d.%02d" (m / 100) (abs (m mod 100))

let to_string = function Document d -> "doc(" ^ d ^ ")" | Money m -> money_to_string m
let pp_money ppf m = Format.pp_print_string ppf (money_to_string m)
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Bag = struct
  type asset = t

  module Docs = Stdlib.Map.Make (String)

  type t = { balance : money; docs : int Docs.t }

  let empty = { balance = 0; docs = Docs.empty }

  let add asset bag =
    match asset with
    | Money m -> { bag with balance = bag.balance + m }
    | Document d ->
      let count = Option.value ~default:0 (Docs.find_opt d bag.docs) in
      { bag with docs = Docs.add d (count + 1) bag.docs }

  let remove asset bag =
    match asset with
    | Money m -> if bag.balance >= m then Some { bag with balance = bag.balance - m } else None
    | Document d -> (
      match Docs.find_opt d bag.docs with
      | None | Some 0 -> None
      | Some 1 -> Some { bag with docs = Docs.remove d bag.docs }
      | Some n -> Some { bag with docs = Docs.add d (n - 1) bag.docs })

  let holds asset bag =
    match asset with
    | Money m -> bag.balance >= m
    | Document d -> ( match Docs.find_opt d bag.docs with Some n -> n > 0 | None -> false)

  let balance bag = bag.balance
  let documents bag = Docs.bindings bag.docs
  let of_list assets = List.fold_left (fun bag a -> add a bag) empty assets

  let equal a b = a.balance = b.balance && Docs.equal Int.equal a.docs b.docs

  let pp ppf bag =
    Format.fprintf ppf "@[<h>{balance=%a; docs=[%a]}@]" pp_money bag.balance
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (d, n) -> Format.fprintf ppf "%s x%d" d n))
      (documents bag)
end
