module Pattern = Action.Pattern

type deal_outcome = Nothing | Complete | Refunded | Windfall | Indemnified | Loss

let pp_deal_outcome ppf o =
  Format.pp_print_string ppf
    (match o with
    | Nothing -> "nothing"
    | Complete -> "complete"
    | Refunded -> "refunded"
    | Windfall -> "windfall"
    | Indemnified -> "indemnified"
    | Loss -> "LOSS")

let deal_and_side spec cref =
  match Spec.find_deal spec cref.Spec.deal with
  | None -> invalid_arg ("Outcomes: unknown deal " ^ cref.Spec.deal)
  | Some d -> (d, cref.Spec.side)

let received_from_deal spec ~party d side state =
  let expects = Spec.commitment_expects d side in
  let counterparty = Spec.commitment_principal d (Spec.other_side side) in
  let sources = [ Spec.effective_agent spec d; d.Spec.via; counterparty ] in
  let came_from src = State.mem (Action.Do { source = src; target = party; asset = expects }) state in
  List.exists came_from sources

let payout_received spec ~party cref state =
  let amount = Spec.indemnity_amount spec party cref in
  amount > 0
  && List.exists
       (fun action ->
         match action with
         | Action.Do { target; asset = Asset.Money m; _ } ->
           Party.equal target party && m >= amount
         | Action.Do _ | Action.Undo _ | Action.Notify _ -> false)
       (State.actions state)

let classify spec ~party cref state =
  let d, side = deal_and_side spec cref in
  if not (Party.equal (Spec.commitment_principal d side) party) then
    invalid_arg "Outcomes.classify: party is not the principal of that commitment";
  let transfer = Spec.send_transfer spec d side in
  let sent = State.mem (Action.Do transfer) state in
  let refunded = State.mem (Action.Undo transfer) state in
  let received = received_from_deal spec ~party d side state in
  match (sent, received, refunded) with
  | true, true, _ -> Complete
  | true, false, true ->
    if Spec.is_split spec party cref && payout_received spec ~party cref state then Indemnified
    else Refunded
  | true, false, false -> Loss
  | false, true, _ -> Windfall
  | false, false, _ -> Nothing

(* Outgoing transfers by a principal that belong to no deal of its own
   (e.g. an indemnity deposit) must have been undone, or the principal is
   out that asset. *)
let extraneous_loss spec ~party state =
  let own_sends =
    List.filter_map
      (fun cref ->
        let d, side = deal_and_side spec cref in
        if Party.equal (Spec.commitment_principal d side) party then
          Some (Spec.send_transfer spec d side)
        else None)
      (Spec.commitments_of spec party)
  in
  let is_deal_send tr =
    List.exists
      (fun own ->
        Party.equal own.Action.target tr.Action.target && Asset.equal own.Action.asset tr.Action.asset)
      own_sends
  in
  List.exists
    (fun action ->
      match action with
      | Action.Do tr ->
        Party.equal tr.Action.source party
        && (not (is_deal_send tr))
        && not (State.mem (Action.Undo tr) state)
      | Action.Undo _ | Action.Notify _ -> false)
    (State.actions state)

let conduit_clean ~party state =
  let gained, lost = State.net_assets party state in
  Asset.Bag.equal gained lost

let principal_refs spec party =
  List.filter
    (fun cref ->
      let d, side = deal_and_side spec cref in
      Party.equal (Spec.commitment_principal d side) party)
    (Spec.commitments_of spec party)

let judge spec ~party state =
  (* (item-level no-loss, full acceptability incl. the bundle rule) *)
  if Party.is_trusted party then
    let ok = conduit_clean ~party state in
    (ok, ok)
  else begin
    let refs = principal_refs spec party in
    let linked, split = List.partition (fun c -> not (Spec.is_split spec party c)) refs in
    let outcomes = List.map (fun c -> (c, classify spec ~party c state)) linked in
    let no_loss = List.for_all (fun (_, o) -> o <> Loss) outcomes in
    let delivered (_, o) = match o with Complete | Windfall -> true | _ -> false in
    let inert (_, o) = match o with Nothing | Refunded | Windfall -> true | _ -> false in
    let bundle_ok =
      outcomes = [] || List.for_all delivered outcomes || List.for_all inert outcomes
    in
    let split_outcomes = List.map (fun c -> classify spec ~party c state) split in
    (* A bare refund on a split piece loses no asset, but it breaks the
       promise the indemnity made — unacceptable, not a loss. *)
    let split_ok =
      List.for_all
        (function
          | Nothing | Complete | Windfall | Indemnified -> true
          | Refunded | Loss -> false)
        split_outcomes
    in
    let split_no_loss = List.for_all (fun o -> o <> Loss) split_outcomes in
    let items_whole =
      no_loss && split_no_loss && not (extraneous_loss spec ~party state)
    in
    (items_whole, items_whole && bundle_ok && split_ok)
  end

let assess spec ~party state =
  match Spec.acceptability_overrides spec party with
  | Some override ->
    let ok = State.acceptable override ~party state in
    (ok, ok)
  | None -> judge spec ~party state

let acceptable spec ~party state = snd (assess spec ~party state)
let no_loss spec ~party state = fst (assess spec ~party state)

let preferred_reached spec ~party state =
  match Spec.acceptability_overrides spec party with
  | Some override -> State.preferred_reached override state
  | None ->
    if Party.is_trusted party then conduit_clean ~party state
    else
      List.for_all
        (fun c -> classify spec ~party c state = Complete)
        (principal_refs spec party)

(* Explicit description generation *)

let product options_per_deal ~max_size =
  let count =
    List.fold_left (fun acc opts -> acc * max 1 (List.length opts)) 1 options_per_deal
  in
  if count > max_size then
    invalid_arg
      (Printf.sprintf "Outcomes.descriptions: %d descriptions exceed the %d bound" count
         max_size);
  List.fold_left
    (fun partials opts ->
      List.concat_map (fun partial -> List.map (fun opt -> partial @ opt) opts) partials)
    [ [] ] options_per_deal

let principal_deal_patterns spec ~party cref =
  let d, side = deal_and_side spec cref in
  let tr = Spec.send_transfer spec d side in
  let expects = Spec.commitment_expects d side in
  let sent = Pattern.of_action (Action.Do tr) in
  let undone = Pattern.of_action (Action.Undo tr) in
  let received = Pattern.P_do (Pattern.Any_party, Pattern.Exactly party, Pattern.Exact_asset expects) in
  let complete = [ sent; received ] in
  let refunded = [ sent; undone ] in
  let windfall = [ received ] in
  let nothing = [] in
  let indemnified =
    let amount = Spec.indemnity_amount spec party cref in
    refunded
    @ [ Pattern.P_do (Pattern.Any_party, Pattern.Exactly party, Pattern.Money_at_least amount) ]
  in
  (complete, refunded, windfall, nothing, indemnified)

let principal_descriptions spec party ~max_size =
  let refs = principal_refs spec party in
  let linked, split = List.partition (fun c -> not (Spec.is_split spec party c)) refs in
  let pats c = principal_deal_patterns spec ~party c in
  let all_complete =
    State.describes (List.concat_map (fun c -> let (complete, _, _, _, _) = pats c in complete) refs)
  in
  let delivered_options c = let (complete, _, windfall, _, _) = pats c in [ complete; windfall ] in
  let inert_options c =
    let (_, refunded, windfall, nothing, _) = pats c in
    [ nothing; refunded; windfall ]
  in
  let split_options c =
    let (complete, _, windfall, nothing, indemnified) = pats c in
    [ nothing; complete; windfall; indemnified ]
  in
  let bundle =
    product (List.map delivered_options linked) ~max_size
    @ product (List.map inert_options linked) ~max_size
  in
  let split_products = product (List.map split_options split) ~max_size in
  let combos =
    List.concat_map (fun b -> List.map (fun s -> State.describes (b @ s)) split_products) bundle
  in
  if List.length combos > max_size then
    invalid_arg "Outcomes.descriptions: combination bound exceeded";
  State.{ descriptions = combos; preferred = all_complete }

let trusted_descriptions spec party ~max_size =
  let mediated = Spec.mediated_by spec party in
  let deal_options d =
    let left_tr = Action.{ source = d.Spec.left; target = party; asset = d.Spec.left_sends } in
    let right_tr = Action.{ source = d.Spec.right; target = party; asset = d.Spec.right_sends } in
    let fwd_left = Action.{ source = party; target = d.Spec.left; asset = d.Spec.right_sends } in
    let fwd_right = Action.{ source = party; target = d.Spec.right; asset = d.Spec.left_sends } in
    let pat a = Pattern.of_action a in
    let conduit =
      [ pat (Action.Do left_tr); pat (Action.Do right_tr); pat (Action.Do fwd_left); pat (Action.Do fwd_right) ]
    in
    let left_back = [ pat (Action.Do left_tr); pat (Action.Undo left_tr) ] in
    let right_back = [ pat (Action.Do right_tr); pat (Action.Undo right_tr) ] in
    ([], conduit, left_back, right_back)
  in
  let options d =
    let nothing, conduit, left_back, right_back = deal_options d in
    [ nothing; conduit; left_back; right_back ]
  in
  let permits =
    [ Pattern.P_notify (Pattern.Exactly party, Pattern.Any_party);
      Pattern.P_undo (Pattern.Any_party, Pattern.Exactly party, Pattern.Any_asset) ]
  in
  let describe patterns = State.{ requires = patterns; permits } in
  let combos = List.map describe (product (List.map options mediated) ~max_size) in
  let preferred =
    describe
      (List.concat_map (fun d -> let _, conduit, _, _ = deal_options d in conduit) mediated)
  in
  State.{ descriptions = combos; preferred }

let descriptions ?(max_size = 20_000) spec party =
  match Spec.acceptability_overrides spec party with
  | Some override -> override
  | None ->
    if Party.is_trusted party then trusted_descriptions spec party ~max_size
    else principal_descriptions spec party ~max_size
