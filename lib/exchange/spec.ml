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

(* (party, document) keys, hashed and compared field by field *)
module Price_tbl = Hashtbl.Make (struct
  type t = Party.t * string

  let equal (p, d) (q, e) = String.equal d e && Party.equal p q
  let hash (p, d) = Hashtbl.hash (Party.name p) + (31 * Hashtbl.hash d)
end)

type index = {
  deal_arr : deal array;
  position : (string, int) Hashtbl.t;  (* first deal with each id *)
  all : (commitment_ref * deal) list;  (* Left then Right per deal, spec order *)
  by_party : party_entry Party.Tbl.t;
  marks : (mark * Party.t * commitment_ref, unit) Hashtbl.t;
  roster : (Party.t list * Party.t list) Lazy.t;
      (* distinct principals and trusted roles, first-appearance order *)
  prices : Asset.money Price_tbl.t Lazy.t;
      (* (principal, document) -> its price: built on first use, since
         most specs (every cache hit's) are never priced *)
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

(* Override descriptions: every pattern is parenthesised and every
   pattern list is closed by a character no pattern starts with, so a
   money amount never runs into the next field. *)
let enc_party_pat buf = function
  | Action.Pattern.Exactly p ->
    Buffer.add_char buf '=';
    enc_party buf p
  | Action.Pattern.Any_party -> Buffer.add_char buf '*'
  | Action.Pattern.Any_trusted -> Buffer.add_char buf 't'
  | Action.Pattern.Any_principal -> Buffer.add_char buf 'p'

let enc_asset_pat buf = function
  | Action.Pattern.Exact_asset a ->
    Buffer.add_char buf '=';
    enc_asset buf a
  | Action.Pattern.Any_document -> Buffer.add_char buf 'd'
  | Action.Pattern.Money_at_least m ->
    Buffer.add_char buf 'g';
    Buffer.add_string buf (string_of_int m)
  | Action.Pattern.Any_asset -> Buffer.add_char buf '*'

let enc_pattern buf pat =
  Buffer.add_char buf '(';
  (match pat with
  | Action.Pattern.P_do (src, tgt, asset) ->
    Buffer.add_char buf 'D';
    enc_party_pat buf src;
    enc_party_pat buf tgt;
    enc_asset_pat buf asset
  | Action.Pattern.P_undo (src, tgt, asset) ->
    Buffer.add_char buf 'U';
    enc_party_pat buf src;
    enc_party_pat buf tgt;
    enc_asset_pat buf asset
  | Action.Pattern.P_notify (agent, informed) ->
    Buffer.add_char buf 'N';
    enc_party_pat buf agent;
    enc_party_pat buf informed);
  Buffer.add_char buf ')'

let enc_description buf (d : State.description) =
  Buffer.add_char buf '{';
  List.iter (enc_pattern buf) d.requires;
  Buffer.add_char buf '|';
  List.iter (enc_pattern buf) d.permits;
  Buffer.add_char buf '}'

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
      (* money ends in bare digits, so the deadline's digits need a
         separator of their own *)
      (match d.deadline with
      | None -> Buffer.add_char buf '-'
      | Some n ->
        Buffer.add_char buf '@';
        Buffer.add_string buf (string_of_int n));
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
    (fun (party, (a : State.acceptability)) ->
      Buffer.add_char buf '(';
      enc_party buf party;
      Buffer.add_char buf '[';
      List.iter (enc_description buf) a.descriptions;
      Buffer.add_char buf ']';
      enc_description buf a.preferred;
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

(* What each document is worth to each principal that trades it: what
   the principal pays for it in its first side (spec order) that
   receives it, else what it is paid for it in its first side that
   sends it. *)
let price_table all =
  let prices = Price_tbl.create 16 in
  let add key price = if not (Price_tbl.mem prices key) then Price_tbl.add prices key price in
  let pass ~receiving =
    List.iter
      (fun (cref, d) ->
        let mine, theirs =
          match cref.side with
          | Left -> (d.left_sends, d.right_sends)
          | Right -> (d.right_sends, d.left_sends)
        in
        let flow, counter_flow = if receiving then (theirs, mine) else (mine, theirs) in
        match flow with
        | Asset.Document doc ->
          let principal = match cref.side with Left -> d.left | Right -> d.right in
          add (principal, doc) (Asset.value counter_flow)
        | Asset.Money _ -> ())
      all
  in
  pass ~receiving:true;
  pass ~receiving:false;
  prices

let dedup_parties parties =
  let seen = Party.Tbl.create 16 in
  List.filter
    (fun p ->
      (not (Party.Tbl.mem seen p))
      && begin
           Party.Tbl.add seen p ();
           true
         end)
    parties

let roster_of deals =
  ( dedup_parties (List.concat_map (fun d -> [ d.left; d.right ]) deals),
    dedup_parties (List.map (fun d -> d.via) deals) )

(* Shared by every spec without marks; never written. *)
let no_marks = Hashtbl.create 1

let index_of t =
  let deal_arr = Array.of_list t.deals in
  let n = Array.length deal_arr in
  let position = Hashtbl.create n in
  let by_party = Party.Tbl.create (2 * n) in
  let entry p =
    match Party.Tbl.find_opt by_party p with
    | Some e -> e
    | None ->
      let e = { sides = []; mediates = [] } in
      Party.Tbl.add by_party p e;
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
  let all = !all in
  let deals = t.deals in
  { deal_arr; position; all; by_party; marks; roster = lazy (roster_of deals); prices = lazy (price_table all) }

(* Never read: [cook] replaces it before a spec escapes this module. *)
let unindexed =
  {
    deal_arr = [||];
    position = Hashtbl.create 1;
    all = [];
    by_party = Party.Tbl.create 1;
    marks = no_marks;
    roster = lazy ([], []);
    prices = lazy (Price_tbl.create 1);
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

(* Memoized per spec; a domain that finds another mid-force builds its
   own copy, as [force_shape] does. *)
let roster t = try Lazy.force t.index.roster with Lazy.Undefined -> roster_of t.deals
let principals t = fst (roster t)
let trusted_agents t = snd (roster t)
let parties t = principals t @ trusted_agents t

let incident t party =
  match Party.Tbl.find_opt t.index.by_party party with Some e -> e.sides | None -> []

let commitments_of t party = List.map fst (incident t party)

(* Validation keeps principals and trusted roles apart, so a
   principal's incident sides are all its own and a trusted role owns
   none. *)
let own_sides t party = if Party.is_principal party then incident t party else []

let mediated_by t agent =
  match Party.Tbl.find_opt t.index.by_party agent with Some e -> e.mediates | None -> []

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

(* [endowed] for each own side, with the party's acquired documents
   tabled once, so a party that sells many documents costs its sides,
   not their square *)
let endowment t party =
  let sides = own_sides t party in
  let sends (cref, d) = commitment_sends d cref.side in
  if List.for_all (fun side -> Asset.is_money (sends side)) sides then List.map sends sides
  else begin
    let acquired = Hashtbl.create 8 in
    List.iter
      (fun (cref, d) ->
        match commitment_expects d cref.side with
        | Asset.Document doc -> Hashtbl.replace acquired doc ()
        | Asset.Money _ -> ())
      sides;
    List.filter_map
      (fun side ->
        match sends side with
        | Asset.Document doc when Hashtbl.mem acquired doc -> None
        | asset -> Some asset)
      sides
  end

(* What an asset is worth to a given party: money at face value; a
   document at what the party pays for it (its cost basis) or, failing
   that, what it is paid for it, read off the index's price table. *)
let price_for t party asset =
  match asset with
  | Asset.Money m -> m
  | Asset.Document doc ->
    (* a domain that finds another mid-force builds its own copy, as
       [force_shape] does *)
    let prices = try Lazy.force t.index.prices with Lazy.Undefined -> price_table t.index.all in
    match Price_tbl.find prices (party, doc) with price -> price | exception Not_found -> 0

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

(* one index build and one validation for the whole list *)
let with_splits marks t =
  let seen = Hashtbl.create 16 in
  let fresh ((owner, cref) as mark) =
    (not (is_split t owner cref || Hashtbl.mem seen mark)) && (Hashtbl.add seen mark (); true)
  in
  match List.filter fresh marks with
  | [] -> t
  | added -> revalidate_exn "Spec.with_splits" { t with splits = t.splits @ added }

let with_split owner cref t = with_splits [ (owner, cref) ] t

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
