(* A randomized electronic marketplace (§1, §9): a stream of independent
   transactions — plain sales, broker resale chains, document fans and
   all-or-nothing bundles — over a population with a configurable level
   of direct trust. For each transaction the market: checks feasibility,
   tries the indemnity rescue when stuck, synthesizes the protocol and
   runs it; the summary shows how trust density changes what commerce is
   possible and what it costs.

     dune exec examples/marketplace.exe [seed]
*)


module Feasibility = Trust_core.Feasibility

type stats = {
  mutable transactions : int;
  mutable feasible : int;
  mutable rescued : int;
  mutable failed : int;
  mutable messages : int;
  mutable indemnity_cents : int;
  mutable runs_ok : int;
}

let fresh () =
  {
    transactions = 0;
    feasible = 0;
    rescued = 0;
    failed = 0;
    messages = 0;
    indemnity_cents = 0;
    runs_ok = 0;
  }

let settle stats spec =
  stats.transactions <- stats.transactions + 1;
  let synthesis = Feasibility.synthesize ~rescue:true spec in
  let plan = synthesis.Feasibility.plan in
  match synthesis.Feasibility.analysis.Feasibility.sequence with
  | None -> stats.failed <- stats.failed + 1
  | Some seq -> (
    (match plan with
    | None -> stats.feasible <- stats.feasible + 1
    | Some plan ->
      stats.rescued <- stats.rescued + 1;
      stats.indemnity_cents <- stats.indemnity_cents + plan.Trust_core.Indemnity.total);
    stats.messages <- stats.messages + Trust_core.Execution.message_count seq;
    match Trust_sim.Harness.cast_of synthesis with
    | Ok cast ->
      let result = Trust_sim.Harness.run_cast cast in
      let report = Trust_sim.Audit.audit spec ?plan result in
      if report.Trust_sim.Audit.all_preferred then stats.runs_ok <- stats.runs_ok + 1
    | Error _ -> ())

let () =
  let seed =
    if Array.length Sys.argv > 1 then Int64.of_string Sys.argv.(1) else 20260706L
  in
  let per_density = 150 in
  Printf.printf "marketplace of %d transactions per trust level (seed %Ld)\n\n" per_density seed;
  let rows =
    List.map
      (fun density ->
        let rng = Workload.Prng.create seed in
        let mix = { Workload.Gen.default_mix with Workload.Gen.trust_density = density } in
        let stats = fresh () in
        List.iter (settle stats) (Workload.Gen.random_transactions rng mix per_density);
        [
          Printf.sprintf "%.1f" density;
          string_of_int stats.feasible;
          string_of_int stats.rescued;
          string_of_int stats.failed;
          Report.Table.money stats.indemnity_cents;
          string_of_int stats.messages;
          Printf.sprintf "%d/%d" stats.runs_ok (stats.feasible + stats.rescued);
        ])
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  Report.Table.print
    ~header:
      [
        "trust density";
        "feasible";
        "rescued";
        "failed";
        "indemnities escrowed";
        "messages";
        "runs completing";
      ]
    rows;
  print_newline ();
  print_string
    (Report.Table.kv
       [
         ("feasible", "protective order exists as specified");
         ("rescued", "infeasible until indemnities split the bundle conjunctions (para 6)");
         ("failed", "no protective order even with indemnities (poor-broker style)");
         ("messages", "total transfer+notify messages across all completed transactions");
       ])
