open Exchange
module Indemnity = Trust_core.Indemnity
module Obs = Trust_obs.Obs

type verdict = {
  party : Party.t;
  honest : bool;
  acceptable : bool;
  no_loss : bool;
  preferred : bool;
}

type report = {
  verdicts : verdict list;
  honest_all_acceptable : bool;
  honest_no_loss : bool;
  all_preferred : bool;
  conserved : bool;
}

let bag_totals bags =
  List.fold_left
    (fun (money, docs) bag ->
      let docs =
        List.fold_left (fun acc (_, n) -> acc + n) docs (Asset.Bag.documents bag)
      in
      (money + Asset.Bag.balance bag, docs))
    (0, 0) bags

let of_verdicts ~conserved verdicts =
  {
    verdicts;
    honest_all_acceptable = List.for_all (fun v -> (not v.honest) || v.acceptable) verdicts;
    honest_no_loss = List.for_all (fun v -> (not v.honest) || v.no_loss) verdicts;
    all_preferred = List.for_all (fun v -> v.preferred) verdicts;
    conserved;
  }

let judge ~deposits spec ~defectors (result : Engine.result) =
  let judged_parties =
    List.filter
      (fun party -> not (Party.is_trusted party && Spec.persona_of spec party <> None))
      (Spec.parties spec)
  in
  let verdicts =
    List.map
      (fun party ->
        let no_loss, acceptable = Outcomes.assess spec ~party result.Engine.state in
        {
          party;
          honest = not (List.exists (Party.equal party) defectors);
          acceptable;
          no_loss;
          preferred = Outcomes.preferred_reached spec ~party result.Engine.state;
        })
      judged_parties
  in
  let initial_total =
    bag_totals
      (List.map
         (fun (party, _) -> Engine.initial_endowment spec ~deposits party)
         result.Engine.holdings)
  in
  let final_total = bag_totals (List.map snd result.Engine.holdings) in
  of_verdicts ~conserved:(initial_total = final_total) verdicts

let record obs ?parent report record_exposure =
  Obs.with_span obs ?parent ~phase:"audit" "audit" (fun span ->
      if Obs.enabled obs then begin
        Obs.attr obs span "verdicts" (Obs.Int (List.length report.verdicts));
        Obs.attr obs span "honest_all_acceptable" (Obs.Bool report.honest_all_acceptable);
        Obs.attr obs span "honest_no_loss" (Obs.Bool report.honest_no_loss);
        Obs.attr obs span "all_preferred" (Obs.Bool report.all_preferred);
        Obs.attr obs span "conserved" (Obs.Bool report.conserved);
        (* the exposure ledger rides along as a child span: peaks, risk
           duration, and one structured event per invariant violation *)
        record_exposure span
      end)

let audit ?(obs = Obs.null) ?parent spec ?plan ?(defectors = []) (result : Engine.result) =
  let deposits = match plan with Some p -> p.Indemnity.offers | None -> [] in
  (* Judge against the split spec: accepted indemnities redefine the
     parties' acceptable states (§6). *)
  let spec = match plan with Some p -> Indemnity.apply p spec | None -> spec in
  let report = judge ~deposits spec ~defectors result in
  if Obs.enabled obs then
    record obs ?parent report (fun span ->
        Exposure.record obs ~parent:span (Exposure.of_result ?plan ~defectors spec result));
  report

let pp_report ppf r =
  Format.fprintf ppf "@[<v>audit: honest-acceptable=%b honest-no-loss=%b all-preferred=%b conserved=%b"
    r.honest_all_acceptable r.honest_no_loss r.all_preferred r.conserved;
  List.iter
    (fun v ->
      Format.fprintf ppf "@,  %-14s honest=%b acceptable=%b no-loss=%b preferred=%b"
        (Party.to_string v.party) v.honest v.acceptable v.no_loss v.preferred)
    r.verdicts;
  Format.fprintf ppf "@]"
