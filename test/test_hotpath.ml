(* The compiled hot path against its interpreted oracle.

   [Harness.behaviors_for] + [Engine.run] + [Exposure.of_result] +
   [Audit.audit] remain the reference semantics; [Trust_core.Compile] +
   [Trust_sim.Hotpath] must replicate them exactly. These property
   tests draw random marketplace transactions and compare the two paths
   — delivery logs, final holdings, stalls, audit verdicts, per-party
   exposure peaks and risk ticks — under honest runs, fault injection,
   defection batteries and tight deadlines, in both synthesis modes.

   The allocation test pins the other half of the contract: a cache-hit
   session on the serve path stays within a fixed minor-heap budget. *)

open Exchange
module Gen = Workload.Gen
module Prng = Workload.Prng
module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Exposure = Trust_sim.Exposure
module Audit = Trust_sim.Audit
module Hotpath = Trust_sim.Hotpath
module Cache = Trust_serve.Cache
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session

let spec_count = 200

let mix =
  {
    Gen.sale_weight = 3;
    chain_weight = 3;
    max_chain = 3;
    fan_weight = 2;
    max_fan = 3;
    bundle_weight = 2;
    max_bundle = 3;
    trust_density = 0.3;
  }

let policies =
  [
    { Cache.default_policy with Cache.mode = Harness.Lockstep; shared = false };
    { Cache.default_policy with Cache.mode = Harness.Distributed; shared = true };
  ]

(* A deterministic drop schedule exercising losses and the retry of
   parked transfers. *)
let drop_every_third seq = seq mod 3 = 1

let engine_config ?(deadline = 1000) ?drops () =
  {
    Engine.default_config with
    Engine.deadline;
    drop = Option.map (fun f -> fun seq (_ : Action.t) -> f seq) drops;
  }

let hot_config ?(deadline = 1000) ?drops () =
  { Hotpath.default_config with Hotpath.deadline; drop = drops }

(* The defection battery for a split spec: honest, a silent first
   principal, and a partial (keep 1) principal paired with a silent
   one when the spec is wide enough. *)
let batteries spec =
  let principals = Spec.principals spec in
  [ [] ]
  @ (match principals with p :: _ -> [ [ (p, Harness.Silent) ] ] | [] -> [])
  @
  match principals with
  | a :: b :: _ -> [ [ (a, Harness.Partial 1); (b, Harness.Silent) ] ]
  | [ a ] -> [ [ (a, Harness.Partial 0) ] ]
  | [] -> []

let run_interpreted (entry : Cache.entry) policy ~config ~defectors =
  let behaviors =
    Harness.behaviors_for ~shared:policy.Cache.shared ?plan:entry.Cache.plan ~defectors
      ~mode:policy.Cache.mode entry.Cache.split_spec entry.Cache.protocol
  in
  let cast =
    {
      Harness.spec = entry.Cache.split_spec;
      plan = entry.Cache.plan;
      mode = policy.Cache.mode;
      protocol = entry.Cache.protocol;
      behaviors;
    }
  in
  Harness.run_cast ~config cast

let equal_log =
  List.equal (fun (a : Engine.delivery) (b : Engine.delivery) ->
      a.Engine.at = b.Engine.at && Action.equal a.Engine.action b.Engine.action)

let equal_holdings =
  List.equal (fun (p1, b1) (p2, b2) -> Party.equal p1 p2 && Asset.Bag.equal b1 b2)

let equal_stalled =
  List.equal (fun (p1, a1) (p2, a2) -> Party.equal p1 p2 && Action.equal a1 a2)

let check_result ~ctx (interp : Engine.result) (compiled : Engine.result) =
  Alcotest.(check bool) (ctx ^ ": delivery log") true (equal_log interp.Engine.log compiled.Engine.log);
  Alcotest.(check bool) (ctx ^ ": final state") true (State.equal interp.Engine.state compiled.Engine.state);
  Alcotest.(check bool)
    (ctx ^ ": holdings") true
    (equal_holdings interp.Engine.holdings compiled.Engine.holdings);
  Alcotest.(check bool)
    (ctx ^ ": stalled") true
    (equal_stalled interp.Engine.stalled compiled.Engine.stalled);
  Alcotest.(check int) (ctx ^ ": events") interp.Engine.events compiled.Engine.events

let check_summary ~ctx (entry : Cache.entry) ~defectors (interp : Engine.result)
    (summary : Hotpath.summary) (compiled : Audit.report) =
  let duration =
    List.fold_left (fun acc (d : Engine.delivery) -> max acc d.Engine.at) 0 interp.Engine.log
  in
  Alcotest.(check int) (ctx ^ ": duration") duration summary.Hotpath.duration;
  Alcotest.(check int) (ctx ^ ": events") interp.Engine.events summary.Hotpath.events;
  Alcotest.(check int)
    (ctx ^ ": deliveries") (List.length interp.Engine.log) summary.Hotpath.deliveries;
  Alcotest.(check int)
    (ctx ^ ": stalled") (List.length interp.Engine.stalled) summary.Hotpath.stalled;
  let report =
    Audit.audit entry.Cache.split_spec ?plan:entry.Cache.plan
      ~defectors:(List.map fst defectors) interp
  in
  Alcotest.(check bool) (ctx ^ ": all_preferred") report.Audit.all_preferred
    summary.Hotpath.all_preferred;
  Alcotest.(check (list bool))
    (ctx ^ ": per-party verdicts")
    (List.map (fun v -> v.Audit.preferred) report.Audit.verdicts)
    (Array.to_list summary.Hotpath.preferred);
  let verdict (v : Audit.verdict) =
    Printf.sprintf "%s honest=%b acceptable=%b no_loss=%b preferred=%b"
      (Party.to_string v.Audit.party) v.Audit.honest v.Audit.acceptable v.Audit.no_loss
      v.Audit.preferred
  in
  Alcotest.(check (list string))
    (ctx ^ ": compiled audit verdicts")
    (List.map verdict report.Audit.verdicts)
    (List.map verdict compiled.Audit.verdicts);
  Alcotest.(check (list bool))
    (ctx ^ ": compiled audit tallies")
    [ report.Audit.honest_all_acceptable; report.Audit.honest_no_loss;
      report.Audit.all_preferred; report.Audit.conserved ]
    [ compiled.Audit.honest_all_acceptable; compiled.Audit.honest_no_loss;
      compiled.Audit.all_preferred; compiled.Audit.conserved ];
  let exposure =
    Exposure.of_result ?plan:entry.Cache.plan ~defectors:(List.map fst defectors)
      entry.Cache.split_spec interp
  in
  Alcotest.(check (list int))
    (ctx ^ ": per-party peak risk")
    (List.map (fun p -> p.Exposure.peak_at_risk) exposure.Exposure.parties)
    (Array.to_list summary.Hotpath.peak_risk);
  Alcotest.(check (list int))
    (ctx ^ ": per-party risk ticks")
    (List.map (fun p -> p.Exposure.risk_ticks) exposure.Exposure.parties)
    (Array.to_list summary.Hotpath.risk_ticks);
  Alcotest.(check int)
    (ctx ^ ": violations")
    (List.length exposure.Exposure.violations)
    summary.Hotpath.violations;
  Alcotest.(check int)
    (ctx ^ ": total peak")
    (Exposure.total_peak_at_risk exposure)
    (Hotpath.total_peak_risk summary);
  Alcotest.(check int)
    (ctx ^ ": total risk ticks")
    (Exposure.total_risk_ticks exposure)
    (Hotpath.total_risk_ticks summary)

(* Every principal silent in turn. *)
let each_silent spec = List.map (fun p -> [ (p, Harness.Silent) ]) (Spec.principals spec)

let check_spec ?(batteries = batteries) ~ctx policy spec =
  match Cache.fresh policy spec with
  | Error _ -> () (* infeasible and unrescued: nothing to execute *)
  | Ok entry ->
    let plan =
      match entry.Cache.compiled with
      | Some plan -> plan
      | None -> Alcotest.failf "%s: cacheable spec missing a compiled plan" ctx
    in
    let variants =
      [ ("honest", None, 1000); ("drops", Some drop_every_third, 1000); ("tight", None, 7) ]
    in
    List.iter
      (fun defectors ->
        List.iter
          (fun (label, drops, deadline) ->
            let ctx =
              Printf.sprintf "%s %s defectors=%d" ctx label (List.length defectors)
            in
            let interp =
              run_interpreted entry policy ~config:(engine_config ~deadline ?drops ())
                ~defectors
            in
            let compiled =
              Hotpath.to_result ~config:(hot_config ~deadline ?drops ()) ~defectors plan
            in
            check_result ~ctx interp compiled;
            let config = hot_config ~deadline ?drops () in
            let summary = Hotpath.exec ~config ~defectors plan in
            check_summary ~ctx entry ~defectors interp summary
              (Hotpath.report ~config ~defectors plan))
          variants)
      (batteries entry.Cache.split_spec)

let test_random_specs () =
  let prng = Prng.create 0xC0FFEE_L in
  for i = 1 to spec_count do
    let spec = Gen.random_transaction prng mix in
    List.iteri
      (fun j policy -> check_spec ~ctx:(Printf.sprintf "spec %d policy %d" i j) policy spec)
      policies
  done

(* Named inputs, so the comparison always covers the paths the role
   table builds: §6 deposits with their refunds and forfeits (fig7),
   rescued specs with one plan (example2) and with a persona
   (example2_broker_trusts_source), two plans (two_bundles) and personas
   on every deal (example1 under direct trust). fig7 and the split
   example2_broker1_indemnifies also run with each principal silent, so
   the audit's Indemnified (a forfeited deposit paid to the consumer)
   and split-piece Refunded outcomes are always judged. *)
let test_worked_examples () =
  let two_bundles =
    match Trust_lang.Elaborate.from_file "../specs/two_bundles.exg" with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "two_bundles.exg: %s" e
  in
  let specs =
    Workload.Scenarios.all
    @ [
        ("two_bundles.exg", two_bundles);
        ( "example1 direct trust",
          Trust_core.Cost.with_all_direct_trust Workload.Scenarios.example1 );
        ("chain 3", Gen.chain ~brokers:3);
        ("bundle 3", Gen.bundle ~docs:3);
        ("fan 10/20/30", Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20; Asset.dollars 30 ]);
      ]
  in
  List.iter
    (fun (label, spec) ->
      List.iteri
        (fun j policy -> check_spec ~ctx:(Printf.sprintf "%s policy %d" label j) policy spec)
        policies)
    specs;
  List.iter
    (fun (label, spec) ->
      List.iteri
        (fun j policy ->
          check_spec ~batteries:each_silent
            ~ctx:(Printf.sprintf "%s silent policy %d" label j)
            policy spec)
        policies)
    [
      ("fig7", Workload.Scenarios.fig7);
      ("example2_broker1_indemnifies", Workload.Scenarios.example2_broker1_indemnifies);
    ];
  (* the forfeit does reach the consumer: distributed fig7, second source silent *)
  let policy = List.nth policies 1 in
  let entry = Result.get_ok (Cache.fresh policy Workload.Scenarios.fig7) in
  let interp =
    run_interpreted entry policy ~config:(engine_config ())
      ~defectors:[ (Party.producer "s2", Harness.Silent) ]
  in
  Alcotest.(check bool)
    "fig7 silent s2: consumer indemnified" true
    (Outcomes.classify entry.Cache.split_spec ~party:Workload.Scenarios.fig7_consumer
       (Workload.Scenarios.fig7_sale_ref 2) interp.Engine.state
    = Outcomes.Indemnified)

(* Scratch buffers grow mid-run when a session outgrows them (heap,
   delivery log, reaction buffer, parked list); growth must keep what
   they already hold. A fresh domain starts from the smallest scratch,
   so a long run there crosses every growth point. *)
let test_growth_keeps_contents () =
  List.iter
    (fun (label, spec) ->
      match Cache.fresh Cache.default_policy spec with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok entry ->
        let plan = Option.get entry.Cache.compiled in
        let policy = Cache.default_policy in
        let config = hot_config () in
        let interp =
          run_interpreted entry policy ~config:(engine_config ()) ~defectors:[]
        in
        Alcotest.(check bool)
          (label ^ ": outgrows the initial scratch") true
          (List.length interp.Engine.log > 64);
        let compiled =
          Domain.join (Domain.spawn (fun () -> Hotpath.to_result ~config ~defectors:[] plan))
        in
        check_result ~ctx:label interp compiled;
        let summary, report =
          Domain.join
            (Domain.spawn (fun () -> (Hotpath.exec ~config plan, Hotpath.report ~config plan)))
        in
        check_summary ~ctx:label entry ~defectors:[] interp summary report)
    [ ("bundle 40", Gen.bundle ~docs:40); ("chain 24", Gen.chain ~brokers:24) ]

(* Traced parity: a traced session on the compiled runtime must record
   the trace the interpreted engine records — every span, attribute,
   event and virtual tick — and close with the same session record.
   Runs the full serve lifecycle (admission, synthesis, run, retry)
   through [Scheduler.process_one] with [compiled] on and off, over the
   random corpus, the defection battery and two drop rates. *)

let session_record (s : Session.t) =
  Printf.sprintf "status=%s ticks=%d events=%d attempts=%d stalled=%d peak=%d risk=%d viol=%d"
    (Session.status_label s.Session.status)
    s.Session.ticks s.Session.events s.Session.attempts s.Session.stalled
    s.Session.exposure_peak s.Session.exposure_ticks s.Session.exposure_violations

let traced_session cache ~compiled ~drop_rate ~id ~defectors spec =
  let cfg = { Scheduler.default_config with Scheduler.compiled; drop_rate } in
  let obs = Trust_obs.Obs.create ~session:id () in
  let session = Session.make ~id ~defectors spec in
  Scheduler.process_one ~obs cfg cache session;
  (session, obs)

(* The corpus spec with a tight §2.2 deadline on its first deal, so
   traces carry per-deal expiries too. *)
let with_first_deadline ticks (spec : Spec.t) =
  match spec.Spec.deals with
  | [] -> spec
  | d :: rest ->
    Spec.make_exn
      ~personas:(Party.Map.bindings spec.Spec.personas)
      ~priorities:spec.Spec.priorities ~splits:spec.Spec.splits
      (Spec.with_deadline ticks d :: rest)

let has_event name obs =
  List.exists
    (fun v -> List.exists (fun e -> e.Trust_obs.Obs.ev_name = name) v.Trust_obs.Obs.view_events)
    (Trust_obs.Obs.views obs)

(* One session both ways; returns whether it ran, and whether its
   trace carries a per-deal expiry. *)
let check_traced_case ~ctx cache ~id ~drop_rate ~defectors spec =
  let hot, hot_obs = traced_session cache ~compiled:true ~drop_rate ~id ~defectors spec in
  let ref_, ref_obs = traced_session cache ~compiled:false ~drop_rate ~id ~defectors spec in
  Alcotest.(check string) (ctx ^ ": session record") (session_record ref_) (session_record hot);
  List.iter
    (fun format ->
      Alcotest.(check string)
        (ctx ^ ": export")
        (Trust_obs.Obs.export format [ ref_obs ])
        (Trust_obs.Obs.export format [ hot_obs ]))
    [ Trust_obs.Obs.Jsonl; Trust_obs.Obs.Chrome ];
  (hot.Session.attempts > 0, has_event "expire" hot_obs)

let test_traced_parity () =
  let prng = Prng.create 0xC0FFEE_L in
  let caches = List.mapi (fun j policy -> (j, Cache.create policy)) policies in
  let traced_runs = ref 0 and expiries = ref 0 in
  for i = 1 to spec_count do
    let corpus_spec = Gen.random_transaction prng mix in
    List.iter
      (fun (variant, spec) ->
        List.iter
          (fun ((j, cache), (defectors, drop_rate)) ->
            let ctx =
              Printf.sprintf "spec %d%s policy %d defectors=%d drop=%g" i variant j
                (List.length defectors) drop_rate
            in
            let ran, expired = check_traced_case ~ctx cache ~id:i ~drop_rate ~defectors spec in
            if ran then incr traced_runs;
            if expired then incr expiries)
          (List.concat_map
             (fun cache ->
               List.concat_map
                 (fun defectors -> [ (cache, (defectors, 0.)); (cache, (defectors, 0.05)) ])
                 (batteries spec))
             caches))
      [ ("", corpus_spec); (" deadline", with_first_deadline 3 corpus_spec) ]
  done;
  Alcotest.(check bool) "the corpus ran traced sessions" true (!traced_runs > 0);
  Alcotest.(check bool) "and traced per-deal expiries" true (!expiries > 0)

(* Allocation regression: a cache-hit session on the serve path must
   stay within a fixed minor-heap budget. The interpreted path spent
   ~8.5k minor words/session rebuilding behaviours, bags and ledgers;
   the compiled path's budget is 10x lower. A regression that
   reintroduces per-session protocol allocation fails this test. *)
let allocation_budget_words = 853.

let test_allocation_budget () =
  let cache = Cache.create Cache.default_policy in
  let cfg = { Scheduler.default_config with Scheduler.drop_rate = 0. } in
  let spec = Gen.chain ~brokers:2 in
  let run id = Scheduler.process_one cfg cache (Session.make ~id spec) in
  (* warm: the miss synthesizes and compiles; later sessions hit *)
  for id = 0 to 2 do
    run id
  done;
  let rounds = 200 in
  let before = Gc.minor_words () in
  for id = 3 to 2 + rounds do
    run id
  done;
  let per_session = (Gc.minor_words () -. before) /. float_of_int rounds in
  if per_session > allocation_budget_words then
    Alcotest.failf "cache-hit session allocated %.0f minor words (budget %.0f)" per_session
      allocation_budget_words

let () =
  Alcotest.run "hotpath"
    [
      ( "parity",
        [
          Alcotest.test_case "worked examples" `Quick test_worked_examples;
          Alcotest.test_case "random specs" `Quick test_random_specs;
          Alcotest.test_case "traced sessions" `Quick test_traced_parity;
          Alcotest.test_case "scratch growth" `Quick test_growth_keeps_contents;
        ] );
      ( "allocation",
        [ Alcotest.test_case "cache-hit budget" `Quick test_allocation_budget ] );
    ]
