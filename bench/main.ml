(* The experiment harness: regenerates every claim-bearing figure and
   worked example of the paper (experiments E1-E12, see DESIGN.md and
   EXPERIMENTS.md) and times the algorithms with Bechamel (B0-B7).

   Usage:
     main.exe                 run every experiment table + timing benches
     main.exe --table E6      run one experiment
     main.exe --bechamel      only the timing benches
     main.exe --quick         smaller sweeps (CI-friendly)
     main.exe --parallel-json multicore scaling sweep over --jobs 1/2/4/8, JSON
                              on stdout (the BENCH_parallel.json baseline)
     main.exe --obs-json      tracing overhead: the serve workload swept over
                              head-sampling rates with the ring sink on vs
                              untraced, JSON on stdout
                              (the BENCH_obs.json baseline)
     main.exe --daemon-json   daemon soak: a live server on a Unix socket
                              under the million-principal Zipf load
                              generator, JSON on stdout
                              (the BENCH_daemon.json baseline)
     main.exe --analyze-json  static exposure analysis cost: the cold abstract
                              interpretation `trustseq analyze` pays per spec,
                              JSON on stdout (the BENCH_analyze.json baseline)
     main.exe --hotpath-json  compiled plan runtime vs the interpreted
                              reference: sessions/sec, per-hit minor
                              allocation, digest equality at jobs 1/4,
                              JSON on stdout (the BENCH_hotpath.json baseline)
     main.exe --mine-json     trace-mining feedback loop: a defect-heavy
                              observation run is mined from its ring, then
                              identical follow-up traffic runs with the
                              pin/pre-warm/deny policy off vs on, JSON on
                              stdout (the BENCH_mine.json baseline)

   Each --*-json emitter prints one compact JSON record through
   Obs.Json, led by "bench", "version" and a "host" block (cores, OS,
   arch), so committed baselines record what build and hardware
   produced them. Serve throughput and its span export come from
   `trustseq batch` (wall line on stderr, --trace FILE).
*)

open Exchange
module Sequencing = Trust_core.Sequencing
module Reduce = Trust_core.Reduce
module Execution = Trust_core.Execution
module Feasibility = Trust_core.Feasibility
module Indemnity = Trust_core.Indemnity
module Cost = Trust_core.Cost
module Table = Report.Table

let quick = ref false

let yes_no b = if b then "yes" else "no"
let feasible_str b = if b then "FEASIBLE" else "infeasible"

(* E1: Example #1 reduction (Figures 3 and 5, section 4.2.2) *)

let e1 () =
  Table.section "E1  Example #1 reduction (Figs. 3/5, para 4.2.2)";
  let g = Sequencing.build Workload.Scenarios.example1 in
  Printf.printf "sequencing graph: %d commitment nodes, %d conjunction nodes, %d edges\n\n"
    (Sequencing.commitment_count g) (Sequencing.conjunction_count g) (Sequencing.edge_count g);
  let outcome = Reduce.run g in
  let rows =
    List.map
      (fun (d : Reduce.deletion) ->
        let c = Sequencing.commitment g d.Reduce.cid in
        let j = Sequencing.conjunction g d.Reduce.jid in
        [
          string_of_int d.Reduce.step;
          Format.asprintf "%a" Reduce.pp_rule d.Reduce.rule;
          Printf.sprintf "%s|%s -- AND %s"
            (Party.name c.Sequencing.agent)
            (Party.name c.Sequencing.principal)
            (Party.name j.Sequencing.owner);
          Format.asprintf "%a" Sequencing.pp_colour d.Reduce.colour;
        ])
      outcome.Reduce.deletions
  in
  Table.print ~header:[ "step"; "rule"; "edge"; "colour" ] rows;
  Printf.printf "\nverdict: %s   (paper: feasible, all six edges removed)\n"
    (feasible_str (Reduce.feasible outcome))

(* E2: the section-5 execution sequence *)

let e2 () =
  Table.section "E2  Example #1 execution sequence (para 5)";
  let analysis = Feasibility.analyze Workload.Scenarios.example1 in
  match analysis.Feasibility.sequence with
  | None -> print_endline "UNEXPECTED: infeasible"
  | Some seq ->
    let expected = Workload.Scenarios.paper_example1_actions in
    let rows =
      List.mapi
        (fun i step ->
          let paper = List.nth_opt expected i in
          [
            string_of_int (i + 1);
            Action.to_string step.Execution.action;
            (match paper with
            | Some a when Action.equal a step.Execution.action -> "=="
            | Some a -> "PAPER: " ^ Action.to_string a
            | None -> "(extra)");
          ])
        seq.Execution.steps
    in
    Table.print ~header:[ "#"; "synthesized action"; "vs paper" ] rows;
    let matches =
      List.length expected = List.length seq.Execution.steps
      && List.for_all2 Action.equal (Execution.actions seq) expected
    in
    Printf.printf "\nexact match with the paper's ten steps: %s\n" (yes_no matches)

(* E3: Example #2 impasse (Figures 4 and 6) *)

let e3 () =
  Table.section "E3  Example #2 impasse (Figs. 4/6, para 4.2.2)";
  let g = Sequencing.build Workload.Scenarios.example2 in
  let edges0 = Sequencing.edge_count g in
  let outcome = Reduce.run g in
  let remaining =
    match outcome.Reduce.verdict with
    | Reduce.Feasible -> 0
    | Reduce.Stuck { remaining } -> List.length remaining
  in
  Table.print
    ~header:[ "quantity"; "measured"; "paper" ]
    [
      [ "edges in figure 4"; string_of_int edges0; "14" ];
      [ "deletions before impasse"; string_of_int (List.length outcome.Reduce.deletions); "4" ];
      [ "edges stuck (figure 6)"; string_of_int remaining; "10" ];
      [ "feasible"; yes_no (Reduce.feasible outcome); "no" ];
    ]

(* E4: direct-trust variants (para 4.2.3) *)

let e4 () =
  Table.section "E4  Trust asymmetry (para 4.2.3)";
  let row name spec paper =
    [ name; feasible_str (Feasibility.is_feasible spec); paper ]
  in
  Table.print
    ~header:[ "variant"; "measured"; "paper" ]
    [
      row "example #2 (no direct trust)" Workload.Scenarios.example2 "infeasible";
      row "source1 trusts broker1" Workload.Scenarios.example2_source_trusts_broker "feasible";
      row "broker1 trusts source1" Workload.Scenarios.example2_broker_trusts_source "infeasible";
    ]

(* E5: the poor broker (para 5, end) *)

let e5 () =
  Table.section "E5  Poor broker (para 5)";
  let outcome = Reduce.run (Sequencing.build Workload.Scenarios.example1_poor_broker) in
  let reds_stuck =
    match outcome.Reduce.verdict with
    | Reduce.Feasible -> 0
    | Reduce.Stuck { remaining } ->
      List.length (List.filter (fun (_, _, c) -> c = Sequencing.Red) remaining)
  in
  Table.print
    ~header:[ "quantity"; "measured"; "paper" ]
    [
      [ "feasible"; yes_no (Reduce.feasible outcome); "no" ];
      [ "mutually pre-empting red edges"; string_of_int reds_stuck; "2" ];
    ]

(* E6: Figure 7 indemnity orderings *)

let e6 () =
  Table.section "E6  Indemnity orderings (Fig. 7, para 6)";
  let spec = Workload.Scenarios.fig7 in
  let owner = Workload.Scenarios.fig7_consumer in
  let describe plan =
    String.concat ", "
      (List.map
         (fun o ->
           Printf.sprintf "%s sets %s aside"
             (Party.name o.Indemnity.offered_by)
             (Table.money o.Indemnity.amount))
         plan.Indemnity.offers)
  in
  let worst = Indemnity.plan_worst spec ~owner in
  let greedy = Indemnity.plan_greedy spec ~owner in
  Table.print
    ~header:[ "ordering"; "offers"; "total"; "paper" ]
    [
      [ "order #1 (worst)"; describe worst; Table.money worst.Indemnity.total; "$90" ];
      [ "order #2 (greedy)"; describe greedy; Table.money greedy.Indemnity.total; "$70" ];
      [
        "exhaustive minimum";
        "(all orderings)";
        Table.money (Indemnity.exhaustive_minimum spec ~owner);
        "$70";
      ];
    ];
  let split = Indemnity.apply greedy spec in
  Printf.printf "\nfig7 without indemnities: %s; with the greedy plan: %s\n"
    (feasible_str (Feasibility.is_feasible spec))
    (feasible_str (Feasibility.is_feasible split))

(* E7: cost of mistrust (para 8) *)

let e7 () =
  Table.section "E7  Cost of mistrust (para 8)";
  let tally_of spec =
    match (Feasibility.analyze spec).Feasibility.sequence with
    | Some seq -> Some (Cost.tally_sequence seq)
    | None -> None
  in
  let show = function
    | Some t ->
      Printf.sprintf "%d (%d xfer + %d ntf)" t.Cost.total t.Cost.transfers t.Cost.notifications
    | None -> "infeasible"
  in
  let row name spec =
    let mediated = tally_of spec in
    let direct = tally_of (Cost.with_all_direct_trust spec) in
    let universal = Cost.universal_tally spec in
    let simulated =
      let result, _ = Trust_sim.Harness.universal_run spec in
      List.length result.Trust_sim.Engine.log
    in
    [
      name;
      show mediated;
      show direct;
      Printf.sprintf "%d (simulated %d)" universal.Cost.total simulated;
    ]
  in
  Table.print
    ~header:[ "exchange"; "pairwise escrow"; "full direct trust"; "universal agent" ]
    [
      row "simple sale" Workload.Scenarios.simple_sale;
      row "example #1 (1 broker)" Workload.Scenarios.example1;
      row "chain, 3 brokers" (Workload.Gen.chain ~brokers:3);
      row "chain, 8 brokers" (Workload.Gen.chain ~brokers:8);
      row "example #2" Workload.Scenarios.example2;
      row "fig. 7" Workload.Scenarios.fig7;
    ];
  print_newline ();
  print_string
    (Table.kv
       [
         ("paper claim", "2 messages per trusting pair vs 4 through an intermediary");
         ("measured", "2 transfers/deal direct vs 4 transfers + 1 notification/deal mediated");
         ("universal agent", "always feasible, 4 transfers/deal, no notifications");
       ])

(* E8: simulated safety (paras 1, 2.3) *)

let e8 () =
  Table.section "E8  Simulated safety under defection (paras 1/2.3)";
  let scenarios =
    List.filter (fun (_, s) -> Feasibility.is_feasible s) Workload.Scenarios.all
    @ [ ("chain3", Workload.Gen.chain ~brokers:3); ("bundle3", Workload.Gen.bundle ~docs:3) ]
  in
  let fig7 = Workload.Scenarios.fig7 in
  let fig7_plan = Indemnity.plan_greedy fig7 ~owner:Workload.Scenarios.fig7_consumer in
  let run_sweep name spec plan =
    let defectors = Trust_sim.Harness.defectable_principals spec in
    let modes =
      [ Trust_sim.Harness.Silent; Trust_sim.Harness.Partial 1; Trust_sim.Harness.Partial 2 ]
    in
    let runs = ref 0 and no_loss = ref 0 and acceptable = ref 0 in
    List.iter
      (fun defector ->
        List.iter
          (fun mode ->
            match
              Trust_sim.Harness.adversarial_run ?plan ~defectors:[ (defector, mode) ] spec
            with
            | Error _ -> ()
            | Ok result ->
              incr runs;
              let report = Trust_sim.Audit.audit spec ?plan ~defectors:[ defector ] result in
              if report.Trust_sim.Audit.honest_no_loss then incr no_loss;
              if report.Trust_sim.Audit.honest_all_acceptable then incr acceptable)
          modes)
      defectors;
    let preferred =
      match Trust_sim.Harness.honest_run ?plan spec with
      | Ok result -> (Trust_sim.Audit.audit spec ?plan result).Trust_sim.Audit.all_preferred
      | Error _ -> false
    in
    [
      name;
      yes_no preferred;
      Printf.sprintf "%d/%d" !no_loss !runs;
      Printf.sprintf "%d/%d" !acceptable !runs;
    ]
  in
  let rows =
    List.map (fun (name, spec) -> run_sweep name spec None) scenarios
    @ [ run_sweep "fig7 + greedy indemnities" fig7 (Some fig7_plan) ]
  in
  Table.print
    ~header:
      [ "scenario"; "honest run preferred"; "no-loss (defection)"; "acceptable (defection)" ]
    rows;
  print_newline ();
  print_string
    (Table.kv
       [
         ("reading", "no-loss = nobody loses an asset (the para-1 guarantee, unconditional)");
         ("", "acceptable = bundles also stay all-or-nothing; needs escrowed or indemnified pieces");
       ])

(* E9: Petri-net baseline (para 7.4) *)

let e9 () =
  Table.section "E9  Petri-net baseline (para 7.4)";
  let rows =
    List.map
      (fun (name, spec) ->
        let verdict, stats = Petri.Encode.feasible (Petri.Encode.of_spec spec) in
        let graph = Feasibility.is_feasible spec in
        let petri =
          match verdict with
          | `Feasible -> "feasible"
          | `Infeasible -> "infeasible"
          | `Unknown -> "unknown"
        in
        [
          name;
          feasible_str graph;
          petri;
          string_of_int stats.Petri.Analysis.explored;
          yes_no ((verdict = `Feasible) = graph);
        ])
      Workload.Scenarios.all
  in
  Table.print ~header:[ "scenario"; "graph reduction"; "petri search"; "states"; "agree" ] rows;
  Printf.printf "\nstate-space growth (reduction-order interleavings of a k-document bundle):\n\n";
  let ks = if !quick then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let rows =
    List.map
      (fun k ->
        let spec = Workload.Gen.bundle ~docs:k in
        let states =
          match Petri.Encode.reduction_orders (Petri.Encode.of_spec spec) with
          | Some n -> string_of_int n
          | None -> ">bound"
        in
        let deletions = List.length (Reduce.run (Sequencing.build spec)).Reduce.deletions in
        [ string_of_int k; states; string_of_int deletions ])
      ks
  in
  Table.print ~header:[ "k"; "petri states (exhaustive)"; "greedy deletions" ] rows;
  print_endline "\nshape: exhaustive exploration grows ~4^k; the greedy reduction stays linear."

(* E10: generalization sweeps *)

let e10 () =
  Table.section "E10  Feasibility phase diagram (paras 3.2/6/8)";
  print_endline "broker chains (always feasible; 5 messages per deal):\n";
  let ns = if !quick then [ 0; 1; 2; 4; 8 ] else [ 0; 1; 2; 4; 8; 16; 32 ] in
  Table.print
    ~header:[ "brokers"; "feasible"; "messages"; "messages (direct trust)" ]
    (List.map
       (fun n ->
         let msg spec =
           match (Feasibility.analyze spec).Feasibility.sequence with
           | Some seq -> string_of_int (Execution.message_count seq)
           | None -> "-"
         in
         [
           string_of_int n;
           yes_no (Feasibility.is_feasible (Workload.Gen.chain ~brokers:n));
           msg (Workload.Gen.chain ~brokers:n);
           msg (Workload.Gen.chain_direct ~brokers:n);
         ])
       ns);
  print_endline
    "\ndocument fans (infeasible for k>=2 until indemnified; greedy total = (k-2)S + min):\n";
  let ks = if !quick then [ 1; 2; 3; 4 ] else [ 1; 2; 3; 4; 5; 6 ] in
  Table.print
    ~header:[ "k"; "feasible bare"; "greedy indemnity"; "formula"; "feasible after" ]
    (List.map
       (fun k ->
         let prices = List.init k (fun i -> Asset.dollars (10 * (i + 1))) in
         let spec = Workload.Gen.fan ~prices in
         let s = List.fold_left ( + ) 0 prices in
         let formula = if k < 2 then 0 else ((k - 2) * s) + List.fold_left min max_int prices in
         let plan = Indemnity.plan_greedy spec ~owner:Workload.Gen.fan_consumer in
         [
           string_of_int k;
           yes_no (Feasibility.is_feasible spec);
           Table.money plan.Indemnity.total;
           Table.money formula;
           yes_no (Feasibility.is_feasible (Indemnity.apply plan spec));
         ])
       ks);
  print_endline "\nfeasibility rate vs direct-trust density (random transaction mix):\n";
  let samples = if !quick then 100 else 400 in
  Table.print
    ~header:[ "trust density"; "feasible"; "rescuable by indemnities" ]
    (List.map
       (fun density ->
         let rng = Workload.Prng.create 2026L in
         let mix = { Workload.Gen.default_mix with Workload.Gen.trust_density = density } in
         let specs = Workload.Gen.random_transactions rng mix samples in
         let feasible = List.length (List.filter Feasibility.is_feasible specs) in
         let rescuable =
           List.length (List.filter (fun s -> Feasibility.rescue_with_indemnities s <> None) specs)
         in
         [
           Printf.sprintf "%.1f" density;
           Printf.sprintf "%3d%%" (100 * feasible / samples);
           Printf.sprintf "%3d%%" (100 * rescuable / samples);
         ])
       [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ])

(* E11: the section-9 extensions *)

let e11 () =
  Table.section "E11  Extensions (para 9: shared agents, trust webs, deadlines)";
  print_endline "an agent trusted by more than two parties (shared-agent bundle):\n";
  let c = Party.consumer "c" and t = Party.trusted "t" in
  let shared_bundle =
    Spec.make_exn
      [
        Spec.sale ~id:"a" ~buyer:c ~seller:(Party.producer "p1") ~via:t
          ~price:(Asset.dollars 10) ~good:"d1";
        Spec.sale ~id:"b" ~buyer:c ~seller:(Party.producer "p2") ~via:t
          ~price:(Asset.dollars 20) ~good:"d2";
      ]
  in
  Table.print
    ~header:[ "analysis"; "verdict" ]
    [
      [ "paper rules (monolithic agent conjunction)"; feasible_str (Feasibility.is_feasible shared_bundle) ];
      [ "extended rules (Rule #3 + atomic agent)"; feasible_str (Feasibility.is_feasible ~shared:true shared_bundle) ];
    ];
  print_endline "\nhierarchy of trust: routed batch over a web (two trust domains):\n";
  let module Routing = Trust_core.Routing in
  let alice = Party.consumer "alice" and bob = Party.producer "bob" in
  let dave = Party.producer "dave" in
  let carol = Party.broker "carol" and dora = Party.broker "dora" in
  let bank = Party.trusted "bank" and notary = Party.trusted "notary" in
  let trusts =
    Routing.mutual alice bank
    @ Routing.mutual carol bank @ Routing.mutual carol notary
    @ Routing.mutual dora bank @ Routing.mutual dora notary
    @ Routing.mutual bob notary @ Routing.mutual dave notary
  in
  let requests =
    [
      Routing.{ id = "x"; buyer = alice; seller = bob; price = Asset.dollars 10; good = "dx" };
      Routing.{ id = "y"; buyer = alice; seller = dave; price = Asset.dollars 20; good = "dy" };
    ]
  in
  (match Routing.connect ~relays:[ carol; dora ] ~trusts requests with
  | Error e -> print_endline ("routing failed: " ^ e)
  | Ok routed ->
    List.iter
      (fun (id, route) -> Format.printf "  %-3s %a@." id Routing.pp_routing route)
      routed.Routing.routes;
    let spec = routed.Routing.spec in
    let rescue = Feasibility.rescue_with_indemnities ~shared:true spec in
    Table.print
      ~header:[ "analysis"; "verdict" ]
      [
        [ "bare (either rule set)"; feasible_str (Feasibility.is_feasible ~shared:true spec) ];
        [
          "with the indemnity rescue (granular agents)";
          (match rescue with
          | Some r ->
            Printf.sprintf "FEASIBLE at %s escrowed"
              (Table.money (Feasibility.total_indemnity r))
          | None -> "unrescuable");
        ];
      ]);
  print_endline "\nper-deal deadlines (para 2.2): a 3-tick inner escrow in example #1:\n";
  let b = Party.broker "b" and p = Party.producer "p" and c = Party.consumer "c" in
  let t1 = Party.trusted "t1" and t2 = Party.trusted "t2" in
  let tight =
    Spec.make_exn
      ~priorities:[ (b, { Spec.deal = "cb"; side = Spec.Right }) ]
      [
        Spec.with_deadline 3
          (Spec.sale ~id:"bp" ~buyer:b ~seller:p ~via:t2 ~price:(Asset.dollars 8) ~good:"d");
        Spec.sale ~id:"cb" ~buyer:c ~seller:b ~via:t1 ~price:(Asset.dollars 10) ~good:"d";
      ]
  in
  (match Trust_sim.Harness.honest_run tight with
  | Error e -> print_endline e
  | Ok result ->
    let report = Trust_sim.Audit.audit tight result in
    Table.print
      ~header:[ "outcome"; "value" ]
      [
        [ "deliveries before/after expiry"; string_of_int (List.length result.Trust_sim.Engine.log) ];
        [ "preferred outcome reached"; yes_no report.Trust_sim.Audit.all_preferred ];
        [ "any honest asset lost"; yes_no (not report.Trust_sim.Audit.honest_no_loss) ];
      ];
    print_endline
      "the partial exchange expires and unwinds: nobody completes, nobody loses.")

(* E12: exposure profiles — the asset-at-risk side of the cost of
   mistrust *)

let e12 () =
  Table.section "E12  Exposure profiles (risk over time, para 8 extended)";
  let module Trace = Trust_sim.Trace in
  let trace_of ?plan spec =
    match Trust_sim.Harness.honest_run ?plan spec with
    | Ok result -> Some (Trace.of_result spec result)
    | Error _ -> None
  in
  let row name ?plan spec =
    match trace_of ?plan spec with
    | None -> [ name; "infeasible"; "-"; "-" ]
    | Some trace ->
      let peaks =
        List.map
          (fun party -> Printf.sprintf "%s=%s" (Party.name party) (Table.money (Trace.peak_exposure trace party)))
          (Spec.principals spec)
      in
      [
        name;
        string_of_int (Trace.duration trace);
        Table.money (Trace.total_peak_exposure trace);
        String.concat " " peaks;
      ]
  in
  let fig7 = Workload.Scenarios.fig7 in
  let fig7_plan = Indemnity.plan_greedy fig7 ~owner:Workload.Scenarios.fig7_consumer in
  Table.print
    ~header:[ "run"; "ticks"; "total peak exposure"; "per-principal peaks" ]
    [
      row "example #1 (mediated)" Workload.Scenarios.example1;
      row "example #1 (direct trust)" (Cost.with_all_direct_trust Workload.Scenarios.example1);
      row "chain, 3 brokers" (Workload.Gen.chain ~brokers:3);
      row "bundle, 3 documents" (Workload.Gen.bundle ~docs:3);
      row "fig7 + indemnities" ~plan:fig7_plan fig7;
    ];
  print_newline ();
  print_string
    (Table.kv
       [
         ( "peak exposure",
           "the worst uncovered position a party is ever in (outlay - received value)" );
         ("invariant", "honest runs always end fully covered; tests extend this to defection runs");
       ])

(* Bechamel timing benches *)

let bechamel_benches () =
  Table.section "B  Bechamel timing (ns/run, ordinary least squares)";
  let open Bechamel in
  let chain_specs = List.map (fun n -> (n, Workload.Gen.chain ~brokers:n)) [ 10; 100; 1000 ] in
  let fan_specs =
    List.map
      (fun k -> (k, Workload.Gen.fan ~prices:(List.init k (fun i -> Asset.dollars (i + 1)))))
      [ 10; 100 ]
  in
  (* Reduction benches run on a copy of a prebuilt graph so they time
     the reducers, not the (quadratic) graph construction; B0 reports
     construction separately. *)
  let prebuilt = List.map (fun (n, spec) -> (n, Sequencing.build spec)) chain_specs in
  let prebuilt_fans = List.map (fun (k, spec) -> (k, Sequencing.build spec)) fan_specs in
  let tests =
    [
      (let spec = Workload.Gen.chain ~brokers:1000 in
       Test.make ~name:"B0 build sequencing graph, chain 1000"
         (Staged.stage (fun () -> ignore (Sequencing.build spec))));
    ]
    @ List.map
        (fun (n, g0) ->
          Test.make
            ~name:(Printf.sprintf "B1 reduce chain %d" n)
            (Staged.stage (fun () -> ignore (Reduce.run (Sequencing.copy g0)))))
        prebuilt
    @ List.map
        (fun (k, g0) ->
          Test.make
            ~name:(Printf.sprintf "B2 reduce fan %d" k)
            (Staged.stage (fun () -> ignore (Reduce.run (Sequencing.copy g0)))))
        prebuilt_fans
    @ [
        (let spec = Workload.Gen.fan ~prices:(List.init 100 (fun i -> Asset.dollars (i + 1))) in
         Test.make ~name:"B4 indemnity plan fan 100"
           (Staged.stage (fun () ->
                ignore (Indemnity.plan_greedy spec ~owner:Workload.Gen.fan_consumer))));
        (let spec = Workload.Gen.bundle ~docs:5 in
         Test.make ~name:"B5 petri exhaustive bundle 5"
           (Staged.stage (fun () -> ignore (Petri.Encode.feasible (Petri.Encode.of_spec spec)))));
        (let spec = Workload.Gen.chain ~brokers:50 in
         Test.make ~name:"B6 simulate honest chain 50"
           (Staged.stage (fun () ->
                match Trust_sim.Harness.honest_run spec with
                | Ok _ -> ()
                | Error e -> failwith e)));
        (let src = Trust_lang.Printer.to_string (Workload.Gen.chain ~brokers:100) in
         Test.make ~name:"B7 parse+elaborate chain 100"
           (Staged.stage (fun () ->
                match Trust_lang.Elaborate.from_string src with
                | Ok _ -> ()
                | Error e -> failwith e)));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (if !quick then 0.25 else 1.0)) ~kde:(Some 1000)
      ()
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols acc ->
            let nanos =
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.sprintf "%.0f" est
              | Some _ | None -> "n/a"
            in
            [ name; nanos ] :: acc)
          analyzed [])
      tests
  in
  Table.print ~header:[ "bench"; "ns/run" ] rows

(* Bench records. Every JSON emitter builds its fields as Obs.Json
   values and hands them to [emit], which prepends the bench name, the
   version and the host block (cores, OS, arch) — so a committed
   baseline records what build and hardware produced it — and prints
   one compact line. Callers format their own figures into [Num], so
   each keeps its precision. *)

module Json = Trust_obs.Json
module Ring = Trust_obs.Ring
module Service = Trust_serve.Service
module Session = Trust_serve.Session
module Scheduler = Trust_serve.Scheduler
module Cache = Trust_serve.Cache
module Shape = Trust_serve.Shape

let int n = Json.Num (string_of_int n)
let num fmt x = Json.Num (Printf.sprintf fmt x)

let uname flag =
  try
    let ic = Unix.open_process_in ("uname " ^ flag ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

let emit ~bench fields =
  let host =
    Json.Obj
      [ ("cores", int (Domain.recommended_domain_count ()));
        ("os", Json.Str (uname "-s")); ("arch", Json.Str (uname "-m")) ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          (("bench", Json.Str bench)
          :: ("version", Json.Str Trustseq_version.Version.v)
          :: ("host", host) :: fields)))

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let ratio a b = if b > 0. then a /. b else 0.
let per_sec n wall = ratio (float_of_int n) wall
let all_equal = function [] -> true | d :: rest -> List.for_all (String.equal d) rest

(* The per-session outcome digest the determinism checks compare:
   FNV-1a over each session's id, status, ticks, events and attempts. *)
let outcome_digest sessions =
  let line (s : Session.t) =
    Printf.sprintf "%d:%s:%d:%d:%d" s.Session.id
      (Session.status_label s.Session.status)
      s.Session.ticks s.Session.events s.Session.attempts
  in
  Printf.sprintf "%016Lx" (Shape.fnv1a (String.concat "\n" (List.map line sessions)))

(* Warm once, so the measured runs price a hot allocator and a
   populated protocol cache, then [n] measured runs: the best wall time
   (which sheds scheduler noise) and every measured run's result. [run]
   returns its own wall seconds, so setup outside its timed region goes
   unpriced. *)
let best_of n run =
  ignore (run ());
  let runs = List.init n (fun _ -> run ()) in
  (List.fold_left (fun best (wall, _) -> Float.min best wall) infinity runs, List.map snd runs)

let service_run cfg =
  let outcome = Service.run cfg in
  (outcome.Service.wall_seconds, outcome)

(* The decoded sessions and stats of a run's ring sink. A missing sink,
   an undecodable dump or, with [~whole], a ring that wrapped (so the
   decode is not the whole run) exits 2. *)
let decode_ring ~bench ?(whole = false) (outcome : Service.outcome) =
  match outcome.Service.ring with
  | None -> fail "%s bench: expected a ring sink" bench
  | Some ring -> (
    match Ring.decode (Ring.dump ring) with
    | Error e -> fail "%s bench: ring decode failed: %s" bench e
    | Ok (_, stats) when whole && stats.Ring.d_dropped <> 0 ->
      fail "%s bench: ring wrapped; size it up" bench
    | Ok decoded -> decoded)

(* Multicore scaling: the same workload at 1/2/4/8 worker domains.
   Real speedup is hardware-dependent (the [cores] field records what
   this host offers); what the suite asserts is the determinism
   contract — every domain count produces the identical per-session
   outcome digest. The committed baseline lives in BENCH_parallel.json. *)

let parallel_json () =
  let sessions = if !quick then 200 else 1000 in
  let drop_rate = 0.02 in
  let run jobs =
    let wall, outcomes =
      best_of 1 (fun () ->
          service_run { Service.default with Service.sessions; seed = 42L; jobs; drop_rate })
    in
    (jobs, per_sec sessions wall, wall, outcome_digest (List.hd outcomes).Service.sessions)
  in
  let runs = List.map run [ 1; 2; 4; 8 ] in
  let base = match runs with (_, rate, _, _) :: _ -> rate | [] -> 0. in
  emit ~bench:"serve_parallel_scaling"
    [ ("sessions", int sessions); ("seed", int 42); ("drop_rate", num "%g" drop_rate);
      ("cores", int (Domain.recommended_domain_count ()));
      ("digests_match", Json.Bool (all_equal (List.map (fun (_, _, _, d) -> d) runs)));
      ( "runs",
        Json.Arr
          (List.map
             (fun (jobs, rate, wall, digest) ->
               Json.Obj
                 [ ("jobs", int jobs); ("wall_seconds", num "%.4f" wall);
                   ("sessions_per_sec", num "%.1f" rate); ("speedup", num "%.2f" (ratio rate base));
                   ("digest", Json.Str digest) ])
             runs) ) ]

(* Production tracing cost: the identical serve workload swept over
   head-sampling rates with the binary ring sink engaged, against a
   fully untraced baseline. The claim-bearing number is the
   overhead_ratio at 1% sampling — docs/OBS.md promises always-on
   tracing priced for production stays within 5% — and the jobs-1 vs
   jobs-4 decoded-ring byte identity, which pins that the sampled set
   and its canonical decode do not depend on domain scheduling. The
   per-rate keep tallies are functions of the seed alone, so they
   double as determinism probes. The committed baseline lives in
   BENCH_obs.json. *)

let obs_json () =
  let sessions = if !quick then 200 else 1000 in
  let ring_bytes = 1 lsl 20 in
  let drop_rate = 0.0002 in
  let config ?(jobs = 1) ?(ring = 0) rate =
    { Service.default with
      Service.sessions; seed = 42L; jobs; drop_rate; sample_rate = rate; trace_ring = ring }
  in
  (* best-of-5; the sampled set, the keeps and the ring contents are
     identical across repeats *)
  let measure cfg =
    let wall, outcomes = best_of 5 (fun () -> service_run cfg) in
    (wall, List.hd outcomes)
  in
  (* baseline: no ring, no batch registry — the sampler never engages
     and every session takes the compiled fast path *)
  let wall_untraced, _ = measure (config 0.0) in
  let point rate =
    let wall, outcome = measure (config ~ring:ring_bytes rate) in
    let ss, stats = decode_ring ~bench:"obs" outcome in
    let count keep = List.length (List.filter (fun s -> s.Ring.s_keep = keep) ss) in
    let sampled = count Ring.Sampled in
    Json.Obj
      [ ("rate", num "%g" rate); ("wall_seconds", num "%.4f" wall);
        ("overhead_ratio", num "%.3f" (ratio wall wall_untraced));
        ("ring_sessions", int stats.Ring.d_sessions); ("sampled", int sampled);
        ("kept_tail", int (List.length ss - sampled));
        ( "keeps",
          Json.Obj
            [ ("violation", int (count Ring.Violation)); ("retry", int (count Ring.Retry));
              ("expiry", int (count Ring.Expiry)); ("lint", int (count Ring.Lint)) ] );
        ("records_written", int stats.Ring.d_written);
        ("records_dropped", int stats.Ring.d_dropped) ]
  in
  let sweep = List.map point [ 0.0; 0.01; 0.1; 1.0 ] in
  (* jobs identity: the decoded ring's canonical export must be
     byte-identical at jobs 1 and jobs 4 (ring sized so nothing wraps;
     eviction order at jobs > 1 is the one scheduling-dependent bit) *)
  let identity_rate = 0.1 in
  let decoded_export jobs =
    let ss, _ =
      decode_ring ~bench:"obs" ~whole:true
        (Service.run (config ~jobs ~ring:(8 * ring_bytes) identity_rate))
    in
    Ring.export Trust_obs.Obs.Jsonl ss
  in
  let jobs_identical = String.equal (decoded_export 1) (decoded_export 4) in
  emit ~bench:"obs_overhead"
    [ ("sessions", int sessions); ("seed", int 42); ("drop_rate", num "%g" drop_rate);
      ("ring_bytes", int ring_bytes); ("wall_seconds_untraced", num "%.4f" wall_untraced);
      ("sweep", Json.Arr sweep);
      ( "jobs_identity",
        Json.Obj
          [ ("rate", num "%g" identity_rate); ("jobs", Json.Arr [ int 1; int 4 ]);
            ("byte_identical", Json.Bool jobs_identical) ] ) ]

(* Daemon soak: a real server (Unix socket, select loop, admission
   control, epoch aging) in a spawned domain, driven by the Zipf load
   generator over the million-principal universe. The claim-bearing
   numbers are throughput, tail latency, and that memory stays bounded
   while the cache ages the long tail out (aged_out > 0). The
   committed baseline lives in BENCH_daemon.json. *)

let daemon_json () =
  let module Server = Trust_daemon.Server in
  let module Loadgen = Trust_daemon.Loadgen in
  let module Procstat = Trust_daemon.Procstat in
  let module Metrics = Trust_serve.Metrics in
  let requests = if !quick then 300 else 5000 in
  let principals = if !quick then 50_000 else 1_000_000 in
  let sock = Printf.sprintf "/tmp/trustseq-bench-%d.sock" (Unix.getpid ()) in
  if Sys.file_exists sock then Sys.remove sock;
  let stop = Atomic.make false in
  let cfg =
    {
      Server.default with
      Server.unix_path = Some sock;
      cache_capacity = 2048;
      epoch_every = 256;
      max_idle_epochs = 2;
    }
  in
  let metrics = Metrics.create () in
  let srv = Domain.spawn (fun () -> Server.run ~stop ~metrics cfg) in
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then begin
      Atomic.set stop true;
      ignore (Domain.join srv);
      fail "daemon soak: server socket never appeared"
    end
    else begin
      (try ignore (Unix.select [] [] [] 0.01) with Unix.Unix_error _ -> ());
      await (n - 1)
    end
  in
  await 500;
  let rss_start = Procstat.rss_kb () in
  let lg =
    {
      Loadgen.default with
      Loadgen.connect = "unix:" ^ sock;
      requests;
      seed = 7L;
      universe = { Workload.Universe.default_config with Workload.Universe.principals };
    }
  in
  let outcome = Loadgen.run lg in
  let rss_end = Procstat.rss_kb () in
  Atomic.set stop true;
  let stats = Domain.join srv in
  let rss_peak = Procstat.peak_rss_kb () in
  match outcome with
  | Error e -> fail "daemon soak: %s" e
  | Ok r ->
    (* the soak runs with the daemon's production-default tracing (1 MiB
       ring, 1% head sampling, tail keeps always) — the latency numbers
       above price that in *)
    let counter name = int (Metrics.value (Metrics.counter metrics name)) in
    let ms x = num "%.3f" x in
    emit ~bench:"daemon_soak"
      [ ("requests", int requests); ("principals", int principals); ("seed", int 7);
        ("wall_seconds", ms r.Loadgen.wall); ("throughput_rps", num "%.1f" r.Loadgen.throughput);
        ( "latency_ms",
          Json.Obj
            [ ("p50", ms r.Loadgen.p50_ms); ("p90", ms r.Loadgen.p90_ms);
              ("p99", ms r.Loadgen.p99_ms); ("max", ms r.Loadgen.max_ms) ] );
        ("settled", int r.Loadgen.settled); ("expired", int r.Loadgen.expired);
        ("aborted", int r.Loadgen.aborted); ("busy", int r.Loadgen.busy);
        ("dropped", int r.Loadgen.dropped); ("cache_hits", int r.Loadgen.cache_hits);
        ( "rss_kb",
          Json.Obj [ ("start", int rss_start); ("end", int rss_end); ("peak", int rss_peak) ] );
        ( "trace",
          Json.Obj
            [ ("ring_bytes", int cfg.Server.trace_ring);
              ("sample_rate", num "%g" cfg.Server.scheduler.Scheduler.sample_rate);
              ("sampled", counter "obs_sessions_sampled_total");
              ("kept_tail", counter "obs_sessions_kept_tail_total");
              ("ring_dropped", counter "obs_ring_records_dropped_total") ] );
        ("server", Json.parse (Server.stats_json stats)) ]

(* Static-analysis cost: the cold abstract interpretation
   (Trust_analyze.Static_exposure.of_analysis) over each shape's
   synthesized analysis — what `trustseq analyze` and
   `lint --static-exposure` pay per spec. The serve path never runs
   it. BENCH_analyze.json is the baseline. *)

let analyze_json () =
  let module SE = Trust_analyze.Static_exposure in
  let shapes =
    [
      ("example1", Workload.Scenarios.example1);
      ("fig7", Workload.Scenarios.fig7);
      ("chain3", Workload.Gen.chain ~brokers:3);
      ("chain8", Workload.Gen.chain ~brokers:8);
      ( "fan5",
        Workload.Gen.fan ~prices:(List.init 5 (fun i -> Asset.dollars (i + 1))) );
      ("bundle3", Workload.Gen.bundle ~docs:3);
    ]
  in
  let time_ns iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let cold_iters = if !quick then 50 else 200 in
  let measure (name, spec) =
    let analysis = (Feasibility.synthesize ~rescue:true spec).Feasibility.analysis in
    let bound () = SE.of_analysis analysis in
    (* warm up so the timed loop does not price a cold allocator *)
    ignore (time_ns 10 bound);
    let cold = time_ns cold_iters bound in
    let r = bound () in
    Json.Obj
      [ ("shape", Json.Str name); ("steps", int r.SE.steps);
        ("verdict", Json.Str (SE.verdict_label r.SE.verdict));
        ("cold_ns", num "%.0f" cold) ]
  in
  emit ~bench:"analyze_static_exposure"
    [ ("cold_iters", int cold_iters); ("shapes", Json.Arr (List.map measure shapes)) ]

(* Compiled hot path: the allocation-free plan runtime
   (Trust_core.Compile + Trust_sim.Hotpath) against the interpreted
   reference on the same fault-injected serve workload. Both paths run
   steady-state: the protocol cache is warmed by a full pass first, and
   the measured pass replays the identical workload against the warm
   cache — this is the daemon's regime, and it is the regime the
   compiled pipeline targets (cold synthesis costs the same on both
   paths, so the untimed warm pass pays it). The claim-bearing
   numbers, pinned by BENCH_hotpath.json: the sessions/sec speedup,
   identical per-session outcome digests on both paths at jobs 1 and 4
   (the compiled runtime changes no verdict, tick or event count
   anywhere), and the cache-hit minor-allocation budget the compiled
   path restores. *)

(* Hit-path growth: the best [Hotpath.exec] (default config) of each
   shape's cached plan at widths 64 .. 1024 (64 .. 512 under --quick),
   in ms, over at least 5 runs and about 20 ms of them, so a
   sub-millisecond point still sheds scheduler noise; with the
   least-squares exponent of time against width on log-log axes. CI
   gates the fan exponent of the quick curve; the 512 point is what
   separates a quadratic hit path from a linear one there, since the
   smaller ones are dominated by fixed costs and noise. *)
let exec_curve () =
  let sizes = if !quick then [ 64; 128; 256; 512 ] else [ 64; 128; 256; 512; 1024 ] in
  let shapes =
    [ ("chain", fun n -> Workload.Gen.chain ~brokers:n);
      ("fan", fun n -> Workload.Gen.fan ~prices:(List.init n (fun i -> Asset.dollars (i + 1))));
      ("bundle", fun n -> Workload.Gen.bundle ~docs:n) ]
  in
  let exec_ms plan =
    let run () =
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (Trust_sim.Hotpath.exec plan));
      (Unix.gettimeofday () -. t0, ())
    in
    (* every point starts from a compacted heap, so the state an
       earlier, larger plan left does not leak into its timing *)
    Gc.compact ();
    let runs = max 5 (min 1000 (int_of_float (0.02 /. fst (run ())))) in
    fst (best_of runs run) *. 1e3
  in
  let exponent points =
    let xs = List.map (fun (n, _) -> log (float_of_int n)) points
    and ys = List.map (fun (_, ms) -> log ms) points in
    let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
    let mx = mean xs and my = mean ys in
    let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. xs ys in
    let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) *. (x -. mx))) 0. xs in
    sxy /. sxx
  in
  let curve (shape, make) =
    let points =
      List.map
        (fun n ->
          match Cache.fresh Cache.default_policy (make n) with
          | Ok { Cache.compiled = Some plan; _ } -> (n, exec_ms plan)
          | Ok _ -> fail "hotpath bench: %s%d has no compiled plan" shape n
          | Error e -> fail "hotpath bench: %s%d: %s" shape n e)
        sizes
    in
    Json.Obj
      [ ("shape", Json.Str shape);
        ( "points",
          Json.Arr
            (List.map
               (fun (n, ms) -> Json.Obj [ ("n", int n); ("exec_ms", num "%.3f" ms) ])
               points) );
        ("exponent", num "%.2f" (exponent points)) ]
  in
  Json.Arr (List.map curve shapes)

let hotpath_json () =
  let sessions = if !quick then 200 else 1000 in
  let drop_rate = 0.02 in
  let workload () =
    Service.sessions_of_config { Service.default with Service.sessions; seed = 42L }
  in
  let run ~compiled jobs =
    let cache = Cache.create ~capacity:Service.default.Service.cache_capacity Cache.default_policy in
    let cfg =
      { Scheduler.default_config with Scheduler.jobs; drop_rate; seed = Shape.mix64 42L; compiled }
    in
    (* the warm pass pays every cold synthesis (and plan compilation)
       once; the measured passes replay the identical workload against
       the warm cache, best-of-3 *)
    let wall, digests =
      best_of 3 (fun () ->
          let batch = workload () in
          let t0 = Unix.gettimeofday () in
          ignore (Scheduler.run cfg cache batch);
          (Unix.gettimeofday () -. t0, outcome_digest batch))
    in
    if not (all_equal digests) then fail "hotpath bench: digest varies across repeat runs";
    (per_sec sessions wall, List.hd digests)
  in
  let interp1 = run ~compiled:false 1 in
  let interp4 = run ~compiled:false 4 in
  let comp1 = run ~compiled:true 1 in
  let comp4 = run ~compiled:true 4 in
  (* steady-state minor allocation per cache-hit session on each path *)
  let words_per_session ~compiled =
    let cache = Cache.create Cache.default_policy in
    let cfg = { Scheduler.default_config with Scheduler.compiled } in
    let spec = Workload.Gen.chain ~brokers:2 in
    let run id = Scheduler.process_one cfg cache (Session.make ~id spec) in
    for id = 0 to 2 do
      run id
    done;
    let rounds = 500 in
    let before = Gc.minor_words () in
    for id = 3 to 2 + rounds do
      run id
    done;
    (Gc.minor_words () -. before) /. float_of_int rounds
  in
  let words_interp = words_per_session ~compiled:false in
  let words_comp = words_per_session ~compiled:true in
  let path (per_sec1, _) (per_sec4, _) words =
    Json.Obj
      [ ("sessions_per_sec_jobs1", num "%.1f" per_sec1);
        ("sessions_per_sec_jobs4", num "%.1f" per_sec4); ("minor_words_per_hit", num "%.0f" words) ]
  in
  emit ~bench:"hotpath"
    [ ("sessions", int sessions); ("seed", int 42); ("drop_rate", num "%g" drop_rate);
      ("warm_cache", Json.Bool true);
      ("interpreted", path interp1 interp4 words_interp);
      ("compiled", path comp1 comp4 words_comp);
      ("speedup_jobs1", num "%.2f" (ratio (fst comp1) (fst interp1)));
      ("alloc_reduction", num "%.1f" (ratio words_interp words_comp));
      ("digests_match", Json.Bool (all_equal (List.map snd [ interp1; interp4; comp1; comp4 ])));
      ("exec_curve", exec_curve ()) ]

(* Trace-mining feedback loop, end to end at the scheduler layer (the
   daemon wires the identical pieces behind --mine-every): a
   defect-heavy observation batch runs with the ring sink on and full
   sampling, the ring is dumped, decoded and mined into the per-shape
   scoreboard — byte-identical at jobs 1 and 4, which the emitter
   asserts — and the pin/deny candidates feed a policy pass: identical
   follow-up traffic runs against two fresh, deliberately small caches,
   one bare and one with denies applied and pin candidates pre-warmed
   and pinned. The claim-bearing numbers, pinned by BENCH_mine.json:
   the scoreboard jobs identity, a cache hit-rate improvement with the
   policy on, and denied shapes aborting with the TM001 diagnostic. *)

let mine_json () =
  let module Mine = Trust_obs.Mine in
  let sessions = if !quick then 300 else 1000 in
  let capacity = 16 in
  let drop_rate = 0.05 in
  let defect_every = 7 in
  let observe_cfg jobs =
    { Service.default with
      Service.sessions; seed = 42L; jobs; drop_rate; defect_every = Some defect_every;
      sample_rate = 1.0; trace_ring = 32 lsl 20; cache_capacity = capacity }
  in
  let board_of jobs =
    let outcome = Service.run (observe_cfg jobs) in
    let ss, _ = decode_ring ~bench:"mine" ~whole:true outcome in
    (Mine.of_sessions ss, outcome)
  in
  let board, observed = board_of 1 in
  let board4, _ = board_of 4 in
  let jobs_identical = String.equal (Mine.json board) (Mine.json board4) in
  let pins = Mine.pin_candidates ~min_incidents:2 board in
  let denies = Mine.deny_candidates ~min_violations:1 board in
  (* shape hex -> spec, from the observed workload: what the daemon's
     spec stash provides for pre-warming *)
  let spec_of = Hashtbl.create 64 in
  List.iter
    (fun (s : Session.t) ->
      let hex = Shape.hash_hex s.Session.spec in
      if not (Hashtbl.mem spec_of hex) then Hashtbl.add spec_of hex s.Session.spec)
    observed.Service.sessions;
  (* follow-up traffic: same universe, fresh seed, fresh small caches *)
  let followup () =
    Service.sessions_of_config { (observe_cfg 1) with Service.seed = 43L }
  in
  let sched_cfg = { Scheduler.default_config with Scheduler.drop_rate; seed = Shape.mix64 43L } in
  let phase ~policy =
    let cache = Cache.create ~capacity Cache.default_policy in
    let prewarmed = ref 0 in
    if policy then begin
      List.iter (fun hex -> Cache.deny cache hex) denies;
      List.iter
        (fun hex ->
          match Option.map (Cache.prewarm cache) (Hashtbl.find_opt spec_of hex) with
          | Some (`Hit | `Warmed) -> incr prewarmed
          | Some (`Failed _) | None -> ())
        pins
    end;
    let batch = followup () in
    ignore (Scheduler.run sched_cfg cache batch);
    let denied_sessions =
      List.length
        (List.filter
           (fun (s : Session.t) ->
             match s.Session.status with
             | Session.Aborted r -> String.starts_with ~prefix:"denied:" r
             | _ -> false)
           batch)
    in
    (Cache.hit_rate cache, denied_sessions, !prewarmed, Cache.pinned_count cache)
  in
  let hit_off, denied_off, _, _ = phase ~policy:false in
  let hit_on, denied_on, prewarmed, pinned = phase ~policy:true in
  let rows = Mine.rows board in
  let sum f = int (List.fold_left (fun acc (r : Mine.row) -> acc + f r) 0 rows) in
  let followup_json hit denied =
    Json.Obj [ ("cache_hit_rate", num "%.4f" hit); ("denied_sessions", int denied) ]
  in
  emit ~bench:"mine_feedback"
    [ ("sessions", int sessions); ("seed", int 42); ("drop_rate", num "%g" drop_rate);
      ("defect_every", int defect_every); ("cache_capacity", int capacity);
      ( "scoreboard",
        Json.Obj
          [ ("sessions", int (Mine.sessions board)); ("shapes", int (Mine.shapes board));
            ("violating_sessions", sum (fun r -> r.Mine.violation_sessions));
            ("retry_expiry_incidents", sum (fun r -> r.Mine.retried + r.Mine.expired));
            ("jobs_identical", Json.Bool jobs_identical) ] );
      ( "policy",
        Json.Obj
          [ ("pin_candidates", int (List.length pins));
            ("deny_candidates", int (List.length denies));
            ("prewarmed", int prewarmed); ("pinned", int pinned) ] );
      ( "followup",
        Json.Obj
          [ ("seed", int 43); ("off", followup_json hit_off denied_off);
            ("on", followup_json hit_on denied_on) ] );
      ("hit_rate_gain", num "%.4f" (hit_on -. hit_off)) ]

(* driver *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
  ]

let emitters =
  [
    ("--parallel-json", parallel_json);
    ("--obs-json", obs_json);
    ("--daemon-json", daemon_json);
    ("--analyze-json", analyze_json);
    ("--hotpath-json", hotpath_json);
    ("--mine-json", mine_json);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--quick" args then quick := true;
  (match List.find_opt (fun (flag, _) -> List.mem flag args) emitters with
  | Some (_, emitter) ->
    emitter ();
    exit 0
  | None -> ());
  let table =
    let rec find = function
      | "--table" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (match table with
  | Some id -> (
    match List.assoc_opt id experiments with
    | Some run -> run ()
    | None ->
      Printf.eprintf "unknown experiment %s (E1..E12)\n" id;
      exit 2)
  | None when List.mem "--bechamel" args -> ()
  | None -> List.iter (fun (_, run) -> run ()) experiments);
  if List.mem "--bechamel" args || table = None then bechamel_benches ()
