open Exchange

type analysis = {
  spec : Spec.t;
  shared : bool;
  outcome : Reduce.outcome;
  sequence : Execution.sequence option;
}

let analyze ?(shared = false) ?obs ?parent spec =
  let outcome = Reduce.run ~shared ?obs ?parent (Sequencing.build ~granular:shared spec) in
  let sequence = Result.to_option (Execution.of_outcome outcome) in
  { spec; shared; outcome; sequence }

let is_feasible ?shared spec = Reduce.feasible (analyze ?shared spec).outcome

let blocking_conjunctions analysis =
  match analysis.outcome.Reduce.verdict with
  | Reduce.Feasible -> []
  | Reduce.Stuck { remaining } ->
    let g = analysis.outcome.Reduce.graph in
    let owners =
      List.map (fun (_, jid, _) -> (Sequencing.conjunction g jid).Sequencing.owner) remaining
    in
    List.sort_uniq Party.compare owners

type rescue = { plans : Indemnity.plan list; analysis : analysis }

(* §6: only conjunctive edges "of the second type" — a principal
   demanding a bundle — may be removed by an indemnity. Conjunctions
   carrying a red edge are broker-style (type 3) and stay whole. Of the
   splittable blocking conjunctions, the cheapest to indemnify is split
   first (ties keep the earliest owner). *)
let cheapest_split analysis =
  List.fold_left
    (fun best owner ->
      if not (Indemnity.splittable analysis.spec ~owner) then best
      else
        let plan = Indemnity.plan_greedy analysis.spec ~owner in
        match best with
        | Some b when b.Indemnity.total <= plan.Indemnity.total -> best
        | _ -> Some plan)
    None (blocking_conjunctions analysis)

let rescue_from first =
  let rec loop analysis plans fuel =
    match analysis.outcome.Reduce.verdict with
    | Reduce.Feasible -> Some { plans = List.rev plans; analysis }
    | Reduce.Stuck _ when fuel = 0 -> None
    | Reduce.Stuck _ -> (
      match cheapest_split analysis with
      | None -> None
      | Some plan ->
        let split = Indemnity.apply plan analysis.spec in
        loop (analyze ~shared:first.shared split) (plan :: plans) (fuel - 1))
  in
  loop first [] (List.length (Spec.parties first.spec) + 1)

let rescue_with_indemnities ?shared spec = rescue_from (analyze ?shared spec)

let total_indemnity rescue =
  List.fold_left (fun acc p -> acc + p.Indemnity.total) 0 rescue.plans

let merged_plan rescue =
  match rescue.plans with
  | [] -> None
  | plans ->
    Some
      { Indemnity.offers = List.concat_map (fun p -> p.Indemnity.offers) plans;
        total = total_indemnity rescue }

type synthesis = { plan : Indemnity.plan option; analysis : analysis }

let synthesize ?shared ?obs ?parent ~rescue spec =
  let first = analyze ?shared ?obs ?parent spec in
  match if rescue then rescue_from first else None with
  | Some r -> { plan = merged_plan r; analysis = r.analysis }
  | None -> { plan = None; analysis = first }
