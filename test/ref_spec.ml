(* The reference spec lookups: the list-scan definitions {!Exchange.Spec}
   used before it carried an index, kept in behaviour so the
   index-backed accessors can be compared against them. Every lookup
   rescans the deal or commitment list, so most are quadratic when run
   once per commitment; the validator runs over raw constructor inputs,
   since a spec that fails it can never be built. Tests only. *)

open Exchange

let find_deal (spec : Spec.t) id = List.find_opt (fun d -> String.equal d.Spec.id id) spec.Spec.deals

let deal_index (spec : Spec.t) id =
  let rec go i = function
    | [] -> -1
    | d :: rest -> if String.equal d.Spec.id id then i else go (i + 1) rest
  in
  go 0 spec.Spec.deals

let commitments (spec : Spec.t) =
  List.concat_map
    (fun d ->
      [
        ({ Spec.deal = d.Spec.id; side = Spec.Left }, d);
        ({ Spec.deal = d.Spec.id; side = Spec.Right }, d);
      ])
    spec.Spec.deals

let commitments_of spec party =
  List.filter_map
    (fun ((cref : Spec.commitment_ref), d) ->
      if Party.equal (Spec.commitment_principal d cref.Spec.side) party || Party.equal d.Spec.via party
      then Some cref
      else None)
    (commitments spec)

let internal_parties spec =
  let counts = Hashtbl.create 64 in
  let bump party =
    let key = Party.to_string party in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  List.iter
    (fun d ->
      bump d.Spec.left;
      bump d.Spec.right;
      bump d.Spec.via;
      bump d.Spec.via)
    spec.Spec.deals;
  List.filter
    (fun p -> Option.value ~default:0 (Hashtbl.find_opt counts (Party.to_string p)) >= 2)
    (Spec.parties spec)

let mem_mark marks owner cref =
  List.exists (fun (o, c) -> Party.equal o owner && Spec.equal_ref c cref) marks

let is_priority (spec : Spec.t) owner cref = mem_mark spec.Spec.priorities owner cref
let is_split (spec : Spec.t) owner cref = mem_mark spec.Spec.splits owner cref

let linked_commitments_of spec party =
  List.filter (fun cref -> not (is_split spec party cref)) (commitments_of spec party)

let price_for spec party asset =
  match asset with
  | Asset.Money m -> m
  | Asset.Document _ -> (
    let deals_pricing ~receiving =
      List.filter_map
        (fun ((cref : Spec.commitment_ref), d) ->
          let side = cref.Spec.side in
          let mine = Party.equal (Spec.commitment_principal d side) party in
          let flow = if receiving then Spec.commitment_expects d side else Spec.commitment_sends d side in
          if mine && Asset.equal flow asset then
            let counter_flow =
              if receiving then Spec.commitment_sends d side else Spec.commitment_expects d side
            in
            Some (Asset.value counter_flow)
          else None)
        (commitments spec)
    in
    match deals_pricing ~receiving:true with
    | price :: _ -> price
    | [] -> ( match deals_pricing ~receiving:false with price :: _ -> price | [] -> 0))

let single_transfer_bound spec party =
  List.fold_left
    (fun acc ((cref : Spec.commitment_ref), d) ->
      if Party.equal (Spec.commitment_principal d cref.Spec.side) party then
        max acc (price_for spec party (Spec.commitment_sends d cref.Spec.side))
      else acc)
    0 (commitments spec)

(* §2.4, as each runtime used to spell it out: money is always on hand;
   a document unless its sender acquires it in any of its deals. *)
let endowed spec d side =
  let asset = Spec.commitment_sends d side in
  let party = Spec.commitment_principal d side in
  match asset with
  | Asset.Money _ -> true
  | Asset.Document _ ->
    not
      (List.exists
         (fun ((cref : Spec.commitment_ref), d') ->
           Party.equal (Spec.commitment_principal d' cref.Spec.side) party
           && Asset.equal (Spec.commitment_expects d' cref.Spec.side) asset)
         (commitments spec))

let endowment spec party =
  if Party.is_trusted party then []
  else
    List.filter_map
      (fun ((cref : Spec.commitment_ref), d) ->
        if Party.equal (Spec.commitment_principal d cref.Spec.side) party && endowed spec d cref.Spec.side
        then Some (Spec.commitment_sends d cref.Spec.side)
        else None)
      (commitments spec)

let validate ~personas ~priorities ~splits deals =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if deals = [] then err "spec has no deals";
  let sorted = List.sort String.compare (List.map (fun d -> d.Spec.id) deals) in
  let rec check_dups = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then err "duplicate deal id %S" a;
      check_dups rest
    | [ _ ] | [] -> ()
  in
  check_dups sorted;
  let check_deal (d : Spec.deal) =
    if not (Party.is_principal d.left) then err "deal %s: left party %a is not a principal" d.id Party.pp d.left;
    if not (Party.is_principal d.right) then err "deal %s: right party %a is not a principal" d.id Party.pp d.right;
    if not (Party.is_trusted d.via) then err "deal %s: via %a is not a trusted role" d.id Party.pp d.via;
    if Party.equal d.left d.right then err "deal %s: a party cannot exchange with itself" d.id;
    if Asset.value d.left_sends < 0 || Asset.value d.right_sends < 0 then
      err "deal %s: negative amount" d.id;
    match d.deadline with
    | Some dl when dl <= 0 -> err "deal %s: non-positive deadline" d.id
    | Some _ | None -> ()
  in
  List.iter check_deal deals;
  let check_persona trusted principal =
    if not (Party.is_trusted trusted) then err "persona: %a is not a trusted role" Party.pp trusted;
    if not (Party.is_principal principal) then err "persona: %a is not a principal" Party.pp principal;
    let uses = List.filter (fun d -> Party.equal d.Spec.via trusted) deals in
    if uses = [] then err "persona: trusted role %a mediates no deal" Party.pp trusted;
    List.iter
      (fun (d : Spec.deal) ->
        if not (Party.equal d.left principal || Party.equal d.right principal) then
          err "persona: %a plays %a but is not a principal of deal %s" Party.pp principal Party.pp
            trusted d.id)
      uses
  in
  Party.Map.iter check_persona
    (List.fold_left (fun m (trusted, p) -> Party.Map.add trusted p m) Party.Map.empty personas);
  let check_mark kind (owner, (cref : Spec.commitment_ref)) =
    match List.find_opt (fun d -> String.equal d.Spec.id cref.Spec.deal) deals with
    | None -> err "%s: unknown deal %S" kind cref.Spec.deal
    | Some d ->
      let endpoints = [ Spec.commitment_principal d cref.Spec.side; d.Spec.via ] in
      if not (List.exists (Party.equal owner) endpoints) then
        err "%s: %a is not an endpoint of commitment %a" kind Party.pp owner Spec.pp_ref cref
  in
  List.iter (check_mark "priority") priorities;
  List.iter (check_mark "split") splits;
  match !errors with [] -> Ok () | errors -> Error (List.rev errors)
