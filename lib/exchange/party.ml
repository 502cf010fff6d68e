type role = Consumer | Producer | Broker

type t = Principal of string * role | Trusted of string

let consumer name = Principal (name, Consumer)
let producer name = Principal (name, Producer)
let broker name = Principal (name, Broker)
let trusted name = Trusted name

let name = function Principal (n, _) -> n | Trusted n -> n
let is_principal = function Principal _ -> true | Trusted _ -> false
let is_trusted = function Trusted _ -> true | Principal _ -> false
let role = function Principal (_, r) -> Some r | Trusted _ -> None

let compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Principal (na, ra), Principal (nb, rb) ->
      let c = String.compare na nb in
      if c <> 0 then c else Stdlib.compare ra rb
    | Trusted na, Trusted nb -> String.compare na nb
    | Principal _, Trusted _ -> -1
    | Trusted _, Principal _ -> 1

let equal a b = a == b || compare a b = 0

let pp_role ppf r =
  Format.pp_print_string ppf
    (match r with Consumer -> "consumer" | Producer -> "producer" | Broker -> "broker")

let pp ppf = function
  | Principal (n, r) -> Format.fprintf ppf "%s:%a" n pp_role r
  | Trusted n -> Format.fprintf ppf "%s:trusted" n

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  (* the name alone: equal parties share it, and hashing a bare string
     skips a block traversal *)
  let hash p = Hashtbl.hash (name p)
end)
