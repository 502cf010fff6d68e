type side = Left | Right

type deal = {
  id : string;
  left : Party.t;
  right : Party.t;
  via : Party.t;
  left_sends : Asset.t;
  right_sends : Asset.t;
  deadline : int option;
}

type commitment_ref = { deal : string; side : side }

(* Built once per value by [cook]; every lookup below reads it instead
   of rescanning the deal list. *)
type party_entry = {
  mutable sides : (commitment_ref * deal) list;
      (* as principal or as trusted role, spec order *)
  mutable mediates : deal list;  (* as trusted role, spec order *)
}

type mark = Priority | Split

type index = {
  deal_arr : deal array;
  position : (string, int) Hashtbl.t;  (* first deal with each id *)
  all : (commitment_ref * deal) list;  (* Left then Right per deal, spec order *)
  by_party : (Party.t, party_entry) Hashtbl.t;
  marks : (mark * Party.t * commitment_ref, unit) Hashtbl.t;
}

type t = {
  deals : deal list;
  personas : Party.t Party.Map.t;
  priorities : (Party.t * commitment_ref) list;
  splits : (Party.t * commitment_ref) list;
  overrides : State.acceptability Party.Map.t;
  index : index;
  shape : (string * int64) Lazy.t;
}

(* {2 Canonical shape}

   Every variable-length field is length-prefixed so the encoding is
   injective: no choice of party or deal names can make two different
   specs collide. The encoding (and its FNV-1a hash) is memoized in the
   spec itself — computed at most once per constructed value, however
   many times the protocol cache looks the spec up. *)

let enc_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let enc_party buf p =
  (match Party.role p with
  | Some Party.Consumer -> Buffer.add_char buf 'C'
  | Some Party.Producer -> Buffer.add_char buf 'P'
  | Some Party.Broker -> Buffer.add_char buf 'B'
  | None -> Buffer.add_char buf 'T');
  enc_string buf (Party.name p)

let enc_asset buf = function
  | Asset.Money m ->
    Buffer.add_char buf 'm';
    Buffer.add_string buf (string_of_int m)
  | Asset.Document d ->
    Buffer.add_char buf 'd';
    enc_string buf d

let enc_ref buf { deal; side } =
  enc_string buf deal;
  Buffer.add_char buf (match side with Left -> 'L' | Right -> 'R')

let encode_shape t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "deals[";
  List.iter
    (fun d ->
      Buffer.add_char buf '(';
      enc_string buf d.id;
      enc_party buf d.left;
      enc_party buf d.right;
      enc_party buf d.via;
      enc_asset buf d.left_sends;
      enc_asset buf d.right_sends;
      (match d.deadline with
      | None -> Buffer.add_char buf '-'
      | Some n -> Buffer.add_string buf (string_of_int n));
      Buffer.add_char buf ')')
    t.deals;
  Buffer.add_string buf "]personas[";
  (* Map bindings come out in key order, so insertion order cannot leak
     into the encoding. *)
  List.iter
    (fun (trusted, principal) ->
      Buffer.add_char buf '(';
      enc_party buf trusted;
      enc_party buf principal;
      Buffer.add_char buf ')')
    (Party.Map.bindings t.personas);
  Buffer.add_string buf "]prios[";
  List.iter
    (fun (owner, cref) ->
      Buffer.add_char buf '(';
      enc_party buf owner;
      enc_ref buf cref;
      Buffer.add_char buf ')')
    t.priorities;
  Buffer.add_string buf "]splits[";
  List.iter
    (fun (owner, cref) ->
      Buffer.add_char buf '(';
      enc_party buf owner;
      enc_ref buf cref;
      Buffer.add_char buf ')')
    t.splits;
  Buffer.add_string buf "]ovr[";
  List.iter
    (fun (party, _) ->
      Buffer.add_char buf '(';
      enc_party buf party;
      Buffer.add_char buf ')')
    (Party.Map.bindings t.overrides);
  Buffer.add_string buf "]";
  Buffer.contents buf

(* A plain loop, not [String.iter]: a ref captured by a closure is boxed
   on every update, while a local one stays an unboxed register. *)
let shape_fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001B3L
  done;
  !h

(* Shared by every spec without marks; never written. *)
let no_marks = Hashtbl.create 1

let index_of t =
  let deal_arr = Array.of_list t.deals in
  let n = Array.length deal_arr in
  let position = Hashtbl.create n in
  let by_party = Hashtbl.create (2 * n) in
  let entry p =
    match Hashtbl.find_opt by_party p with
    | Some e -> e
    | None ->
      let e = { sides = []; mediates = [] } in
      Hashtbl.add by_party p e;
      e
  in
  let all = ref [] in
  (* Walk backwards and prepend, so every list comes out in spec order
     and the first deal with a repeated id wins the position table. *)
  for i = n - 1 downto 0 do
    let d = deal_arr.(i) in
    Hashtbl.replace position d.id i;
    let agent = entry d.via in
    agent.mediates <- d :: agent.mediates;
    let side s principal =
      let c = ({ deal = d.id; side = s }, d) in
      let e = entry principal in
      all := c :: !all;
      e.sides <- c :: e.sides;
      if e != agent then agent.sides <- c :: agent.sides
    in
    side Right d.right;
    side Left d.left
  done;
  let marks =
    if t.priorities = [] && t.splits = [] then no_marks
    else begin
      let marks = Hashtbl.create 16 in
      let mark kind (owner, cref) = Hashtbl.replace marks (kind, owner, cref) () in
      List.iter (mark Priority) t.priorities;
      List.iter (mark Split) t.splits;
      marks
    end
  in
  { deal_arr; position; all = !all; by_party; marks }

(* Never read: [cook] replaces it before a spec escapes this module. *)
let unindexed =
  {
    deal_arr = [||];
    position = Hashtbl.create 1;
    all = [];
    by_party = Hashtbl.create 1;
    marks = no_marks;
  }

(* Install a fresh index and shape memo: every construction site (make
   and the with_ updates) routes through here, so neither can go stale.
   The recursive binding is constructive — the lazy body reads the
   cooked record's non-shape fields only. *)
let cook base =
  let index = index_of base in
  let rec cooked =
    {
      base with
      index;
      shape =
        lazy
          (let key = encode_shape cooked in
           (key, shape_fnv1a key));
    }
  in
  cooked

(* [Lazy.force] is not domain-safe: a force that observes another
   domain mid-force raises [Lazy.Undefined]. The shape is a pure
   function of the spec, so the loser simply computes its own copy —
   same value, no coordination. *)
let force_shape t =
  try Lazy.force t.shape
  with Lazy.Undefined ->
    let key = encode_shape t in
    (key, shape_fnv1a key)

let shape_key t = fst (force_shape t)
let shape_hash t = snd (force_shape t)
let shape_hex t = Printf.sprintf "%016Lx" (shape_hash t)

let deal ~id ~left ~right ~via ~left_sends ~right_sends =
  { id; left; right; via; left_sends; right_sends; deadline = None }

let sale ~id ~buyer ~seller ~via ~price ~good =
  {
    id;
    left = buyer;
    right = seller;
    via;
    left_sends = Asset.money price;
    right_sends = Asset.document good;
    deadline = None;
  }

let with_deadline deadline d = { d with deadline = Some deadline }

let equal_ref a b = String.equal a.deal b.deal && a.side = b.side
let other_side = function Left -> Right | Right -> Left

let find_deal t id =
  match Hashtbl.find_opt t.index.position id with
  | Some i -> Some t.index.deal_arr.(i)
  | None -> None

let deal_index t id = Option.value ~default:(-1) (Hashtbl.find_opt t.index.position id)
let commitment_principal d = function Left -> d.left | Right -> d.right
let commitment_sends d = function Left -> d.left_sends | Right -> d.right_sends
let commitment_expects d side = commitment_sends d (other_side side)
let commitments t = t.index.all

let dedup_parties parties =
  let rec loop seen = function
    | [] -> []
    | p :: rest ->
      if Party.Set.mem p seen then loop seen rest else p :: loop (Party.Set.add p seen) rest
  in
  loop Party.Set.empty parties

let principals t = dedup_parties (List.concat_map (fun d -> [ d.left; d.right ]) t.deals)
let trusted_agents t = dedup_parties (List.map (fun d -> d.via) t.deals)
let parties t = principals t @ trusted_agents t

let incident t party =
  match Hashtbl.find_opt t.index.by_party party with Some e -> e.sides | None -> []

let commitments_of t party = List.map fst (incident t party)

let own_sides t party =
  List.filter
    (fun (cref, d) -> Party.equal (commitment_principal d cref.side) party)
    (incident t party)

let mediated_by t agent =
  match Hashtbl.find_opt t.index.by_party agent with Some e -> e.mediates | None -> []

(* A conjunction owner has two or more interaction edges. *)
let internal_parties t =
  List.filter (fun p -> List.compare_length_with (incident t p) 2 >= 0) (parties t)

let persona_of t trusted = Party.Map.find_opt trusted t.personas

let effective_agent t d =
  match persona_of t d.via with Some principal -> principal | None -> d.via

(* The deal-transfer rules (§4.2.3–§5). A principal commits its side to
   whoever actually plays the deal's trusted role. *)
let commit_transfer t d side =
  Action.
    {
      source = commitment_principal d side;
      target = effective_agent t d;
      asset = commitment_sends d side;
    }

(* The principal's visible send (§4.2.4): when it plays the role itself
   the commit moves nothing, and what it sends is the direct delivery to
   the counterparty. *)
let send_transfer t d side =
  let tr = commit_transfer t d side in
  if Party.equal tr.Action.source tr.Action.target then
    { tr with Action.target = commitment_principal d (other_side side) }
  else tr

(* The audit's delivery rule: a principal has its expected item when
   the party playing the role, the abstract role or the counterparty
   sent it. *)
let deliveries t d side =
  let asset = commitment_expects d side and target = commitment_principal d side in
  List.map
    (fun source -> Action.{ source; target; asset })
    [ effective_agent t d; d.via; commitment_principal d (other_side side) ]

(* Documents forwarded before payments — this is what puts "Trusted2
   sends document to Broker" before "Trusted2 sends money to Producer"
   in the paper's worked Example #1 sequence. *)
let forwards t d =
  let agent = effective_agent t d in
  let to_left = Action.{ source = agent; target = d.left; asset = d.right_sends } in
  let to_right = Action.{ source = agent; target = d.right; asset = d.left_sends } in
  let docs, money =
    List.partition (fun tr -> Asset.is_document tr.Action.asset) [ to_left; to_right ]
  in
  docs @ money

let persona_transfers t d persona =
  let mine = if Party.equal d.left persona then Left else Right in
  (commit_transfer t d (other_side mine), send_transfer t d mine)

let plays_own_agent t cref =
  match find_deal t cref.deal with
  | None -> false
  | Some d -> (
    match persona_of t d.via with
    | Some principal -> Party.equal principal (commitment_principal d cref.side)
    | None -> false)

let is_priority t owner cref = Hashtbl.mem t.index.marks (Priority, owner, cref)
let is_split t owner cref = Hashtbl.mem t.index.marks (Split, owner, cref)

let linked_commitments_of t party =
  List.filter (fun cref -> not (is_split t party cref)) (commitments_of t party)

let cost_to t party cref =
  match find_deal t cref.deal with
  | None -> 0
  | Some d ->
    if Party.equal (commitment_principal d cref.side) party then
      Asset.value (commitment_sends d cref.side)
    else 0

let indemnity_amount t owner cref =
  let others = List.filter (fun c -> not (equal_ref c cref)) (commitments_of t owner) in
  List.fold_left (fun total c -> total + cost_to t owner c) 0 others

let acceptability_overrides t party = Party.Map.find_opt party t.overrides

(* §2.4: money is always on hand; a document is on hand unless its
   sender acquires it through another of its deals (the reselling
   broker starts without it). *)
let endowed t d side =
  match commitment_sends d side with
  | Asset.Money _ -> true
  | Asset.Document _ as asset ->
    let principal = commitment_principal d side in
    not
      (List.exists
         (fun (cref, d') -> Asset.equal (commitment_expects d' cref.side) asset)
         (own_sides t principal))

let endowment t party =
  List.filter_map
    (fun (cref, d) -> if endowed t d cref.side then Some (commitment_sends d cref.side) else None)
    (own_sides t party)

(* What an asset is worth to a given party: money at face value; a
   document at what the party pays for it (its cost basis) or, failing
   that, what it is paid for it. *)
let price_for t party asset =
  match asset with
  | Asset.Money m -> m
  | Asset.Document _ -> (
    let sides = own_sides t party in
    let priced ~receiving =
      List.find_map
        (fun (cref, d) ->
          let flow, counter_flow =
            if receiving then (commitment_expects d cref.side, commitment_sends d cref.side)
            else (commitment_sends d cref.side, commitment_expects d cref.side)
          in
          if Asset.equal flow asset then Some (Asset.value counter_flow) else None)
        sides
    in
    match priced ~receiving:true with
    | Some price -> price
    | None -> Option.value ~default:0 (priced ~receiving:false))

(* §5: a feasible sequence keeps at most one transfer of a party in
   flight, so its worst honest-run position is its single largest
   outgoing transfer. *)
let single_transfer_bound t party =
  List.fold_left
    (fun acc (cref, d) -> max acc (price_for t party (commitment_sends d cref.side)))
    0 (own_sides t party)

let defectable_principals t =
  let personas = Party.Map.fold (fun _ principal acc -> principal :: acc) t.personas [] in
  List.filter (fun p -> not (List.exists (Party.equal p) personas)) (principals t)

let pp_side ppf side =
  Format.pp_print_string ppf (match side with Left -> "left" | Right -> "right")

let pp_ref ppf cref = Format.fprintf ppf "%s.%a" cref.deal pp_side cref.side

let pp_deal ppf d =
  Format.fprintf ppf "@[<h>deal %s: %s sends %a, %s sends %a, via %s%t@]" d.id
    (Party.name d.left) Asset.pp d.left_sends (Party.name d.right) Asset.pp d.right_sends
    (Party.name d.via)
    (fun ppf ->
      match d.deadline with
      | Some dl -> Format.fprintf ppf ", within %d" dl
      | None -> ())

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if t.deals = [] then err "spec has no deals";
  let ids = List.map (fun d -> d.id) t.deals in
  let sorted = List.sort String.compare ids in
  let rec check_dups = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then err "duplicate deal id %S" a;
      check_dups rest
    | [ _ ] | [] -> ()
  in
  check_dups sorted;
  let check_deal d =
    if not (Party.is_principal d.left) then err "deal %s: left party %a is not a principal" d.id Party.pp d.left;
    if not (Party.is_principal d.right) then err "deal %s: right party %a is not a principal" d.id Party.pp d.right;
    if not (Party.is_trusted d.via) then err "deal %s: via %a is not a trusted role" d.id Party.pp d.via;
    if Party.equal d.left d.right then err "deal %s: a party cannot exchange with itself" d.id;
    if Asset.value d.left_sends < 0 || Asset.value d.right_sends < 0 then
      err "deal %s: negative amount" d.id;
    (match d.deadline with
    | Some dl when dl <= 0 -> err "deal %s: non-positive deadline" d.id
    | Some _ | None -> ())
  in
  List.iter check_deal t.deals;
  let check_persona trusted principal =
    if not (Party.is_trusted trusted) then
      err "persona: %a is not a trusted role" Party.pp trusted;
    if not (Party.is_principal principal) then
      err "persona: %a is not a principal" Party.pp principal;
    let uses = mediated_by t trusted in
    if uses = [] then err "persona: trusted role %a mediates no deal" Party.pp trusted;
    let fits d = Party.equal d.left principal || Party.equal d.right principal in
    List.iter
      (fun d ->
        if not (fits d) then
          err "persona: %a plays %a but is not a principal of deal %s" Party.pp principal
            Party.pp trusted d.id)
      uses
  in
  Party.Map.iter check_persona t.personas;
  let check_mark kind (owner, cref) =
    match find_deal t cref.deal with
    | None -> err "%s: unknown deal %S" kind cref.deal
    | Some d ->
      let endpoints = [ commitment_principal d cref.side; d.via ] in
      if not (List.exists (Party.equal owner) endpoints) then
        err "%s: %a is not an endpoint of commitment %a" kind Party.pp owner pp_ref cref
  in
  List.iter (check_mark "priority") t.priorities;
  List.iter (check_mark "split") t.splits;
  match !errors with [] -> Ok () | errors -> Error (List.rev errors)

let make ?(personas = []) ?(priorities = []) ?(splits = []) ?(overrides = []) deals =
  let personas =
    List.fold_left (fun m (trusted, p) -> Party.Map.add trusted p m) Party.Map.empty personas
  in
  let overrides =
    List.fold_left (fun m (party, a) -> Party.Map.add party a m) Party.Map.empty overrides
  in
  let t =
    cook
      {
        deals;
        personas;
        priorities;
        splits;
        overrides;
        index = unindexed;
        shape = lazy (assert false);
      }
  in
  match validate t with Ok () -> Ok t | Error es -> Error es

let make_exn ?personas ?priorities ?splits ?overrides deals =
  match make ?personas ?priorities ?splits ?overrides deals with
  | Ok t -> t
  | Error es -> invalid_arg ("Spec.make_exn: " ^ String.concat "; " es)

let revalidate_exn what t =
  let t = cook t in
  match validate t with
  | Ok () -> t
  | Error es -> invalid_arg (what ^ ": " ^ String.concat "; " es)

let with_split owner cref t =
  if is_split t owner cref then t
  else revalidate_exn "Spec.with_split" { t with splits = t.splits @ [ (owner, cref) ] }

let with_persona ~trusted ~principal t =
  revalidate_exn "Spec.with_persona"
    { t with personas = Party.Map.add trusted principal t.personas }

let with_override party acceptability t =
  cook { t with overrides = Party.Map.add party acceptability t.overrides }

let with_priority owner cref t =
  if is_priority t owner cref then t
  else
    revalidate_exn "Spec.with_priority" { t with priorities = t.priorities @ [ (owner, cref) ] }

let pp ppf t =
  Format.fprintf ppf "@[<v>spec with %d deals" (List.length t.deals);
  List.iter (fun d -> Format.fprintf ppf "@,  %a" pp_deal d) t.deals;
  Party.Map.iter
    (fun trusted p ->
      Format.fprintf ppf "@,  persona: %s plays %s" (Party.name p) (Party.name trusted))
    t.personas;
  List.iter
    (fun (owner, cref) ->
      Format.fprintf ppf "@,  priority (red): %a at conj(%s)" pp_ref cref (Party.name owner))
    t.priorities;
  List.iter
    (fun (owner, cref) ->
      Format.fprintf ppf "@,  split: %a off conj(%s)" pp_ref cref (Party.name owner))
    t.splits;
  Format.fprintf ppf "@]"
