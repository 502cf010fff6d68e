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

type t = {
  deals : deal list;
  personas : Party.t Party.Map.t;
  priorities : (Party.t * commitment_ref) list;
  splits : (Party.t * commitment_ref) list;
  overrides : State.acceptability Party.Map.t;
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

(* Install a fresh memo: every construction site (make and the with_
   updates) routes through here, so a spec's shape can never go stale.
   The recursive binding is constructive — the lazy body reads the
   cooked record's non-shape fields only. *)
let cook base =
  let rec cooked =
    {
      base with
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

let find_deal t id = List.find_opt (fun d -> String.equal d.id id) t.deals
let commitment_principal d = function Left -> d.left | Right -> d.right
let commitment_sends d = function Left -> d.left_sends | Right -> d.right_sends
let commitment_expects d side = commitment_sends d (other_side side)

let commitments t =
  List.concat_map
    (fun d -> [ ({ deal = d.id; side = Left }, d); ({ deal = d.id; side = Right }, d) ])
    t.deals

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

let commitments_of t party =
  let incident (cref, d) =
    if Party.equal (commitment_principal d cref.side) party || Party.equal d.via party then
      Some cref
    else None
  in
  (* A party that is both a principal of a deal and its trusted role
     cannot happen post-validation; each commitment is incident to a
     party at most once. *)
  List.filter_map incident (commitments t)

let internal_parties t =
  (* one pass: count interaction edges per party *)
  let counts = Hashtbl.create 64 in
  let bump party =
    let key = Party.to_string party in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  List.iter
    (fun d ->
      bump d.left;
      bump d.right;
      bump d.via;
      bump d.via)
    t.deals;
  List.filter
    (fun p -> Option.value ~default:0 (Hashtbl.find_opt counts (Party.to_string p)) >= 2)
    (parties t)

let persona_of t trusted = Party.Map.find_opt trusted t.personas

let effective_agent t d =
  match persona_of t d.via with Some principal -> principal | None -> d.via

let plays_own_agent t cref =
  match find_deal t cref.deal with
  | None -> false
  | Some d -> (
    match persona_of t d.via with
    | Some principal -> Party.equal principal (commitment_principal d cref.side)
    | None -> false)

let mem_mark marks owner cref =
  List.exists (fun (o, c) -> Party.equal o owner && equal_ref c cref) marks

let is_priority t owner cref = mem_mark t.priorities owner cref
let is_split t owner cref = mem_mark t.splits owner cref

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

(* What an asset is worth to a given party: money at face value; a
   document at what the party pays for it (its cost basis) or, failing
   that, what it is paid for it. *)
let price_for t party asset =
  match asset with
  | Asset.Money m -> m
  | Asset.Document _ ->
    let deals_pricing ~receiving =
      List.filter_map
        (fun (cref, d) ->
          let mine = Party.equal (commitment_principal d cref.side) party in
          let flow =
            if receiving then commitment_expects d cref.side else commitment_sends d cref.side
          in
          if mine && Asset.equal flow asset then
            let counter_flow =
              if receiving then commitment_sends d cref.side else commitment_expects d cref.side
            in
            Some (Asset.value counter_flow)
          else None)
        (commitments t)
    in
    (match deals_pricing ~receiving:true with
    | price :: _ -> price
    | [] -> ( match deals_pricing ~receiving:false with price :: _ -> price | [] -> 0))

(* §5: a feasible sequence keeps at most one transfer of a party in
   flight, so its worst honest-run position is its single largest
   outgoing transfer. *)
let single_transfer_bound t party =
  List.fold_left
    (fun acc (cref, d) ->
      if Party.equal (commitment_principal d cref.side) party then
        max acc (price_for t party (commitment_sends d cref.side))
      else acc)
    0 (commitments t)

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
    let uses = List.filter (fun d -> Party.equal d.via trusted) t.deals in
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
