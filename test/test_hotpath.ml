(* The compiled hot path against its interpreted oracle.

   [Harness.behaviors_for] + [Engine.run] + [Exposure.of_result] +
   [Audit.audit] remain the reference semantics; [Trust_core.Compile] +
   [Trust_sim.Hotpath] must replicate them exactly. These property
   tests draw random marketplace transactions and compare the two paths
   — delivery logs, final holdings, stalls, audit verdicts, per-party
   exposure peaks and risk ticks — under honest runs, fault injection,
   defection batteries and tight deadlines, in both synthesis modes,
   with and without acceptability overrides.

   Wide chains, fans and bundles (up to 128) run the same comparison,
   and every compared plan's listener table is checked against the
   pair-by-pair reference relation in [Ref_listeners].

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
module C = Trust_core.Compile
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

(* Acceptability overrides (§2.3's general form): accept anything,
   accept nothing, or accept exactly the states holding the party's own
   sends — on the first principal, or on it and a second party (the
   next principal, else the first trusted role). [k] picks one, so a
   corpus walks through all four. *)
let veto = State.{ descriptions = []; preferred = describes [] }

let own_sends spec party =
  let sends =
    List.map
      (fun ((cref : Spec.commitment_ref), d) ->
        Action.Pattern.of_action (Action.Do (Spec.send_transfer spec d cref.Spec.side)))
      (Spec.own_sides spec party)
  in
  State.{ descriptions = [ describes sends ]; preferred = describes sends }

let with_override k spec =
  match Spec.principals spec with
  | [] -> spec
  | a :: rest -> (
    match k mod 4 with
    | 0 -> Spec.with_override a State.always_acceptable spec
    | 1 -> Spec.with_override a veto spec
    | 2 -> Spec.with_override a (own_sends spec a) spec
    | _ -> (
      let spec = Spec.with_override a (own_sends spec a) spec in
      match rest @ Spec.trusted_agents spec with
      | b :: _ -> Spec.with_override b veto spec
      | [] -> spec))

(* Every principal silent in turn. *)
let each_silent spec = List.map (fun p -> [ (p, Harness.Silent) ]) (Spec.principals spec)

(* The listener table against the reference relation, with every
   step's subscription slot pointing at its own role in its condition's
   listener range. *)
let check_listeners ~ctx (p : C.t) =
  let table =
    Array.init p.C.n_actions (fun a ->
        Array.to_list (Array.sub p.C.lst_role p.C.lst_off.(a) (p.C.lst_off.(a + 1) - p.C.lst_off.(a))))
  in
  Alcotest.(check (array (list int))) (ctx ^ ": listener table") (Ref_listeners.listeners p) table;
  Array.iteri
    (fun r (_, role) ->
      let steps = match role with C.Script { steps; _ } -> steps | C.Escrow e -> e.C.es_notifies in
      Array.iter
        (fun (st : C.step) ->
          let c = st.C.cond and k = st.C.slot in
          let ok =
            if c < 0 then k = -1
            else p.C.lst_off.(c) <= k && k < p.C.lst_off.(c + 1) && p.C.lst_role.(k) = r
          in
          if not ok then Alcotest.failf "%s: role %d step waiting on %d carries slot %d" ctx r c k)
        steps)
    p.C.roles

let all_variants =
  [ ("honest", None, 1000); ("drops", Some drop_every_third, 1000); ("tight", None, 7) ]

let check_spec ?(batteries = batteries) ?(variants = all_variants) ~ctx policy spec =
  match Cache.fresh policy spec with
  | Error _ -> () (* infeasible and unrescued: nothing to execute *)
  | Ok entry ->
    let plan =
      match entry.Cache.compiled with
      | Some plan -> plan
      | None -> Alcotest.failf "%s: entry missing its compiled plan" ctx
    in
    check_listeners ~ctx plan;
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
      (fun j policy ->
        check_spec ~ctx:(Printf.sprintf "spec %d policy %d" i j) policy spec;
        check_spec ~ctx:(Printf.sprintf "spec %d override %d policy %d" i (i mod 4) j) policy
          (with_override i spec))
      policies
  done

(* [Engine.run] hands each observation to one behaviour per party, and
   finds a delivery's beneficiary by name: every cast the interpreted
   reference runs must hold one behaviour per party name. *)
let test_one_behavior_per_party () =
  let prng = Prng.create 0xC0FFEE_L in
  let corpus =
    List.init spec_count (fun i -> (Printf.sprintf "spec %d" (i + 1), Gen.random_transaction prng mix))
  in
  List.iter
    (fun (label, spec) ->
      List.iteri
        (fun j policy ->
          match Cache.fresh policy spec with
          | Error _ -> ()
          | Ok entry ->
            List.iter
              (fun defectors ->
                let names =
                  List.map
                    (fun b -> Party.name (Trust_sim.Behavior.party b))
                    (Harness.behaviors_for ~shared:policy.Cache.shared ?plan:entry.Cache.plan
                       ~defectors ~mode:policy.Cache.mode entry.Cache.split_spec
                       entry.Cache.protocol)
                in
                if List.length (List.sort_uniq String.compare names) <> List.length names then
                  Alcotest.failf "%s policy %d defectors=%d: two behaviours share a party" label j
                    (List.length defectors))
              (batteries entry.Cache.split_spec @ each_silent entry.Cache.split_spec))
        policies)
    (Workload.Scenarios.all @ corpus)

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

(* Wide shapes: the listener table matters most where a plan has many
   roles, so the parity property also runs chains, fans and bundles 16
   wide under the full battery, and 128 wide honest. *)
let wide_fan n = (Printf.sprintf "fan %d" n, Gen.fan ~prices:(List.init n (fun i -> Asset.dollars (i + 1))))

let wide ~chain ~fan ~bundle =
  [
    (Printf.sprintf "chain %d" chain, Gen.chain ~brokers:chain);
    wide_fan fan;
    (Printf.sprintf "bundle %d" bundle, Gen.bundle ~docs:bundle);
  ]

let wide_shapes =
  List.map (fun shape -> (shape, true)) (wide ~chain:16 ~fan:16 ~bundle:16)
  @ List.map (fun shape -> (shape, false)) (wide ~chain:128 ~fan:128 ~bundle:128)

let honest_only _ = [ [] ]

let test_wide_shapes () =
  List.iter
    (fun ((label, spec), full) ->
      List.iteri
        (fun j policy ->
          let ctx = Printf.sprintf "%s policy %d" label j in
          if full then check_spec ~ctx policy spec
          else check_spec ~batteries:honest_only ~variants:[ List.hd all_variants ] ~ctx policy spec)
        policies)
    wide_shapes

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

(* the wide shapes traced: 16 wide, the full battery with and without
   drops; the 128-wide fan, one honest session per policy *)
let test_traced_wide () =
  let caches = List.map Cache.create policies in
  let run ~id cache ~defectors ~drop_rate (label, spec) =
    let ctx = Printf.sprintf "%s defectors=%d drop=%g" label (List.length defectors) drop_rate in
    ignore (check_traced_case ~ctx cache ~id ~drop_rate ~defectors spec)
  in
  List.iteri
    (fun id (label, spec) ->
      List.iter
        (fun cache ->
          List.iter
            (fun defectors ->
              List.iter (fun drop_rate -> run ~id cache ~defectors ~drop_rate (label, spec)) [ 0.; 0.05 ])
            (batteries spec))
        caches)
    (wide ~chain:16 ~fan:16 ~bundle:16);
  List.iter (fun cache -> run ~id:0 cache ~defectors:[] ~drop_rate:0. (wide_fan 128)) caches

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
      [
        ("", corpus_spec);
        (" deadline", with_first_deadline 3 corpus_spec);
        (Printf.sprintf " override %d" (i mod 4), with_override i corpus_spec);
      ]
  done;
  Alcotest.(check bool) "the corpus ran traced sessions" true (!traced_runs > 0);
  Alcotest.(check bool) "and traced per-deal expiries" true (!expiries > 0)

(* Override specs through the batch scheduler: the same sessions at
   [compiled] true and false, with drops and a defector every third
   session, export the same trace JSONL and close with the same
   session records. *)
let test_override_batch () =
  let prng = Prng.create 0xBEEF_L in
  let specs =
    List.init 60 (fun _ -> Gen.random_transaction prng mix)
    |> List.concat_map (fun spec -> List.init 4 (fun k -> with_override k spec))
  in
  let run compiled =
    let sessions =
      List.mapi
        (fun id spec ->
          Session.make ~id ~defectors:(Harness.injected_defectors ~every:3 id spec) spec)
        specs
    in
    let obs = Trust_obs.Obs.batch ~enabled:true ~sessions:(List.length sessions) in
    let cfg =
      { Scheduler.default_config with Scheduler.compiled; drop_rate = 0.08; seed = 7L }
    in
    ignore (Scheduler.run ~obs cfg (Cache.create Cache.default_policy) sessions : Scheduler.stats);
    ( List.map session_record sessions,
      Trust_obs.Obs.export Trust_obs.Obs.Jsonl (Trust_obs.Obs.batch_traces obs) )
  in
  let hot_records, hot_trace = run true and ref_records, ref_trace = run false in
  Alcotest.(check (list string)) "session records" ref_records hot_records;
  Alcotest.(check string) "trace JSONL" ref_trace hot_trace;
  Alcotest.(check bool) "the batch audits some override unacceptable" true
    (List.exists (fun r -> String.starts_with ~prefix:"status=expired" r) hot_records)

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
          Alcotest.test_case "override batch" `Quick test_override_batch;
          Alcotest.test_case "scratch growth" `Quick test_growth_keeps_contents;
          Alcotest.test_case "wide shapes" `Quick test_wide_shapes;
          Alcotest.test_case "traced wide shapes" `Quick test_traced_wide;
          Alcotest.test_case "one behaviour per party" `Quick test_one_behavior_per_party;
        ] );
      ( "allocation",
        [ Alcotest.test_case "cache-hit budget" `Quick test_allocation_budget ] );
    ]
