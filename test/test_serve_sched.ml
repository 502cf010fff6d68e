(* The batch scheduler: explicit session lifecycle, deterministic
   placement and metrics, defector isolation, and retry-once under
   injected drops. *)

module Harness = Trust_sim.Harness
module Session = Trust_serve.Session
module Scheduler = Trust_serve.Scheduler
module Cache = Trust_serve.Cache
module Metrics = Trust_serve.Metrics
module Service = Trust_serve.Service
module Pool = Trust_serve.Pool
module Ring = Trust_obs.Ring
module Gen = Workload.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_lifecycle () =
  let session = Session.make ~id:0 (Gen.chain ~brokers:1) in
  check_string "starts queued" "queued" (Session.status_label session.Session.status);
  Session.transition session Session.Synthesizing;
  Session.transition session Session.Running;
  Session.transition session Session.Settled;
  check "settled is terminal" true (Session.is_terminal session.Session.status);
  let fresh = Session.make ~id:1 (Gen.chain ~brokers:1) in
  Alcotest.check_raises "queued cannot settle"
    (Invalid_argument "Session.transition: session 1 cannot go queued -> settled") (fun () ->
      Session.transition fresh Session.Settled);
  Session.transition fresh Session.Synthesizing;
  Alcotest.check_raises "synthesizing cannot expire"
    (Invalid_argument "Session.transition: session 1 cannot go synthesizing -> expired")
    (fun () -> Session.transition fresh Session.Expired)

(* One Lockstep batch: eight identical chains, session 3 defects
   silently. The paper's safety claim says everyone else still settles
   and only the defector's session unwinds at the deadline. *)
let defector_batch () =
  let spec = Gen.chain ~brokers:2 in
  let defector =
    match Harness.defectable_principals spec with
    | p :: _ -> p
    | [] -> Alcotest.fail "chain must have defectable principals"
  in
  let sessions =
    List.init 8 (fun id ->
        let defectors = if id = 3 then [ (defector, Harness.Silent) ] else [] in
        Session.make ~id ~defectors spec)
  in
  let cache = Cache.create Cache.default_policy in
  let metrics = Metrics.create () in
  let stats = Scheduler.run ~metrics { Scheduler.default_config with Scheduler.concurrency = 4 } cache sessions in
  (sessions, cache, metrics, stats)

let test_defector_batch () =
  let sessions, cache, _, _ = defector_batch () in
  List.iter
    (fun (s : Session.t) ->
      let expected = if s.Session.id = 3 then "expired" else "settled" in
      check_string
        (Printf.sprintf "session %d" s.Session.id)
        expected
        (Session.status_label s.Session.status))
    sessions;
  (* eight admissions of one shape: 1 miss, 7 hits *)
  check_int "one miss" 1 (Cache.misses cache);
  check_int "seven hits" 7 (Cache.hits cache)

let test_defector_batch_deterministic () =
  let sessions1, _, metrics1, stats1 = defector_batch () in
  let sessions2, _, metrics2, stats2 = defector_batch () in
  check_string "metrics snapshots byte-identical" (Metrics.to_text metrics1)
    (Metrics.to_text metrics2);
  check_string "json snapshots byte-identical" (Metrics.to_json metrics1)
    (Metrics.to_json metrics2);
  check_int "same makespan" stats1.Scheduler.makespan stats2.Scheduler.makespan;
  List.iter2
    (fun (a : Session.t) (b : Session.t) ->
      check_string "same status" (Session.status_label a.Session.status)
        (Session.status_label b.Session.status);
      check_int "same placement" a.Session.started_at b.Session.started_at;
      check_int "same completion" a.Session.finished_at b.Session.finished_at)
    sessions1 sessions2

let test_retry_on_drops () =
  let spec = Gen.chain ~brokers:2 in
  let run ~drop_rate =
    let session = Session.make ~id:0 spec in
    let cache = Cache.create Cache.default_policy in
    let config =
      { Scheduler.default_config with Scheduler.concurrency = 1; drop_rate; seed = 5L }
    in
    let stats = Scheduler.run config cache [ session ] in
    (session, stats)
  in
  let session, stats = run ~drop_rate:0.5 in
  (* the faulted first attempt stalls the lockstep pipeline; the retry
     runs drop-free and settles *)
  check_int "retried once" 1 stats.Scheduler.retried;
  check_int "two engine runs" 2 session.Session.attempts;
  check_string "settled after retry" "settled" (Session.status_label session.Session.status);
  let clean, clean_stats = run ~drop_rate:0. in
  check_int "no retry without drops" 0 clean_stats.Scheduler.retried;
  check_int "one engine run" 1 clean.Session.attempts;
  check_string "settled" "settled" (Session.status_label clean.Session.status)

let test_defector_not_retried () =
  (* retry is for drop-stalled sessions; a protocol-level defection with
     fault injection off expires exactly once *)
  let spec = Gen.chain ~brokers:1 in
  let defector = List.hd (Harness.defectable_principals spec) in
  let session = Session.make ~id:0 ~defectors:[ (defector, Harness.Silent) ] spec in
  let cache = Cache.create Cache.default_policy in
  let stats = Scheduler.run Scheduler.default_config cache [ session ] in
  check_int "no retries" 0 stats.Scheduler.retried;
  check_int "single attempt" 1 session.Session.attempts;
  check_string "expired" "expired" (Session.status_label session.Session.status)

let test_bounded_concurrency () =
  let sessions () = List.init 12 (fun id -> Session.make ~id (Gen.chain ~brokers:1)) in
  let makespan lanes =
    let cache = Cache.create Cache.default_policy in
    (Scheduler.run { Scheduler.default_config with Scheduler.concurrency = lanes } cache
       (sessions ()))
      .Scheduler.makespan
  in
  let serial = makespan 1 and wide = makespan 4 in
  check "more lanes, no slower" true (wide <= serial);
  check "serial pays for every session" true (serial >= 12)

let test_pool_runs_everything () =
  (* the team grows (jobs 4), is reused smaller (2, 3) and bypassed
     (jobs 1, or fewer than two items) *)
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let counters = Array.make n 0 in
          Pool.run ~jobs (fun i -> counters.(i) <- counters.(i) + 1) (Array.init n Fun.id);
          Array.iteri
            (fun i c -> check_int (Printf.sprintf "jobs %d, %d items: item %d ran once" jobs n i) 1 c)
            counters)
        [ 0; 1; 200 ])
    [ 2; 4; 2; 1; 3 ]

let test_pool_propagates_failure () =
  let ran = Atomic.make 0 in
  Alcotest.check_raises "first item exception re-raised" (Failure "boom") (fun () ->
      Pool.run ~jobs:2
        (fun i ->
          if i = 37 then failwith "boom";
          Atomic.incr ran)
        (Array.init 100 Fun.id));
  check_int "every other item still ran" 99 (Atomic.get ran);
  let after = Atomic.make 0 in
  Pool.run ~jobs:2 (fun _ -> Atomic.incr after) (Array.init 100 Fun.id);
  check_int "the next call runs cleanly" 100 (Atomic.get after)

let test_pool_nested () =
  let inner = Atomic.make 0 in
  Pool.run ~jobs:2
    (fun _ -> Pool.run ~jobs:2 (fun _ -> Atomic.incr inner) (Array.init 10 Fun.id))
    (Array.init 4 Fun.id);
  check_int "every nested item ran" 40 (Atomic.get inner)

let test_pool_caps_helpers () =
  (* grow the team to three helpers, then ask for two domains *)
  Pool.run ~jobs:4 ignore (Array.make 200 ());
  let ids = Array.make 200 (-1) in
  Pool.run ~jobs:2
    (fun i -> ids.(i) <- (Domain.self () :> int))
    (Array.init 200 Fun.id);
  let distinct = List.sort_uniq compare (Array.to_list ids) in
  check "a jobs-2 call runs on at most two domains" true (List.length distinct <= 2)

(* The number of shards of a ring dump that ever took a commit. Each
   writer domain adopts its own shard on first use, so with more shards
   than domains this counts the distinct domains that recorded. *)
let shards_written dump =
  let pos = ref 4 (* past the magic *) in
  let rec varint shift acc =
    let b = Char.code dump.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint (shift + 7) acc
  in
  let used = ref 0 in
  for _ = 1 to varint 0 0 do
    let written = varint 0 0 in
    ignore (varint 0 0 : int);
    pos := !pos + varint 0 0;
    if written > 0 then incr used
  done;
  !used

(* Domain reuse: one ring, every session sampled, 50 consecutive
   jobs-2 calls. Sessions run on the caller and one persistent helper,
   so at most two shards take commits; a pool spawned per call would
   bring two fresh domains each time and fill all 64. *)
let test_domains_reused () =
  (* a team grown past one helper must still lend a jobs-2 call only one *)
  Pool.run ~jobs:4 ignore (Array.make 8 ());
  let ring = Ring.create ~shards:64 ~capacity:(1 lsl 20) () in
  let cache = Cache.create Cache.default_policy in
  let cfg = { Scheduler.default_config with Scheduler.jobs = 2; sample_rate = 1.0 } in
  for call = 0 to 49 do
    let sessions = List.init 8 (fun i -> Session.make ~id:((call * 8) + i) (Gen.chain ~brokers:1)) in
    ignore (Scheduler.run ~ring cfg cache sessions : Scheduler.stats)
  done;
  check_int "400 sessions recorded" 400 (Ring.sessions_recorded ring);
  check "sessions ran on at most two domains" true (shards_written (Ring.dump ring) <= 2)

(* Strip the pool gauges (samples and their HELP lines) — the only
   metrics allowed to vary with [jobs] — before comparing snapshots
   across domain counts. *)
let contains_pool_gauge line =
  let needle = "serve_pool_" and n = String.length line in
  let k = String.length needle in
  let rec at i = i + k <= n && (String.sub line i k = needle || at (i + 1)) in
  at 0

let metrics_sans_pool m =
  Metrics.to_text m |> String.split_on_char '\n'
  |> List.filter (fun line -> not (contains_pool_gauge line))
  |> String.concat "\n"

let parallel_batch ~jobs =
  let config =
    {
      Service.default with
      Service.sessions = 80;
      seed = 23L;
      concurrency = 4;
      jobs;
      drop_rate = 0.05;
      defect_every = Some 9;
    }
  in
  Service.run config

let test_jobs_bit_identical () =
  let a = parallel_batch ~jobs:1 and b = parallel_batch ~jobs:4 in
  List.iter2
    (fun (x : Session.t) (y : Session.t) ->
      check_string "same verdict" (Session.status_label x.Session.status)
        (Session.status_label y.Session.status);
      check_int "same ticks" x.Session.ticks y.Session.ticks;
      check_int "same events" x.Session.events y.Session.events;
      check_int "same attempts" x.Session.attempts y.Session.attempts;
      check_int "same placement" x.Session.started_at y.Session.started_at;
      check_int "same completion" x.Session.finished_at y.Session.finished_at)
    a.Service.sessions b.Service.sessions;
  check_int "same makespan" a.Service.stats.Scheduler.makespan b.Service.stats.Scheduler.makespan;
  check_int "same retries" a.Service.stats.Scheduler.retried b.Service.stats.Scheduler.retried;
  check_int "same cache misses" (Cache.misses a.Service.cache) (Cache.misses b.Service.cache);
  check_int "same cache hits" (Cache.hits a.Service.cache) (Cache.hits b.Service.cache);
  check_string "metrics identical modulo pool gauges" (metrics_sans_pool a.Service.metrics)
    (metrics_sans_pool b.Service.metrics)

(* The serve_pool_* telemetry: at jobs=1 the team is not used and the
   volatile channel is empty (so `trustseq batch` prints no gauge line
   even under --debug-gauges); at jobs>1 the scheduling-dependent
   gauge appears on the volatile channel only, while the deterministic
   worker-count gauge stays in the snapshot. *)
let test_pool_gauges_quarantined () =
  let contains hay needle =
    let n = String.length hay and k = String.length needle in
    let rec at i = i + k <= n && (String.sub hay i k = needle || at (i + 1)) in
    at 0
  in
  let run jobs =
    Service.run
      { Service.default with Service.sessions = 24; seed = 5L; concurrency = 4; jobs }
  in
  let seq = run 1 and par = run 4 in
  check_string "no volatile gauges at jobs=1" "" (Metrics.volatile_text seq.Service.metrics);
  check "no pool series in the sequential snapshot" false
    (contains (Metrics.to_text seq.Service.metrics) "serve_pool_");
  let vol = Metrics.volatile_text par.Service.metrics in
  check "worker waits on the volatile channel" true (contains vol "serve_pool_worker_waits");
  let snap = Metrics.to_text par.Service.metrics in
  check "worker count stays in the snapshot" true (contains snap "serve_pool_workers");
  check "wait counts quarantined from the snapshot" false
    (contains snap "serve_pool_worker_waits")

let test_service_deterministic () =
  let config =
    {
      Service.default with
      Service.sessions = 60;
      seed = 11L;
      concurrency = 4;
      defect_every = Some 7;
    }
  in
  let a = Service.run config and b = Service.run config in
  check_string "service json byte-identical" (Service.json a) (Service.json b);
  let t = Service.tally a.Service.sessions in
  check_int "every session terminal" 60
    (t.Service.settled + t.Service.expired + t.Service.aborted);
  check "cache pays" true (Cache.hit_rate a.Service.cache > 0.);
  check "defectors expired" true (t.Service.expired > 0)

(* A traced admission writes its lint span from the per-shape memo. On
   a warm memo it must export what a fresh cache exports, and its span
   must be the one [Lint.check_spec] records when it lints directly.
   Covers a clean spec, one with warnings, one the lint refuses and an
   override spec (never memoized, linted fresh each time). *)
let test_memoized_lint_span () =
  let module Obs = Trust_obs.Obs in
  let module Diagnostic = Trust_analyze.Diagnostic in
  let load name =
    match Trust_lang.Elaborate.from_file ("../specs/lint/" ^ name) with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let export obs = Obs.export Obs.Jsonl [ obs ] in
  let traced cache spec =
    let obs = Obs.create ~session:7 () in
    Scheduler.process_one ~obs Scheduler.default_config cache (Session.make ~id:7 spec);
    export obs
  in
  let override =
    Exchange.Spec.with_override (Exchange.Party.consumer "c") Exchange.State.always_acceptable
      (Gen.chain ~brokers:1)
  in
  List.iter
    (fun (label, spec, severity) ->
      let diagnostics = Trust_analyze.Lint.check_spec ~deep:false spec in
      Option.iter
        (fun severity ->
          check (label ^ ": lint finds that severity") true
            (List.exists (fun d -> d.Diagnostic.severity = severity) diagnostics))
        severity;
      let warm = Cache.create Cache.default_policy in
      ignore (Cache.admission warm spec : string option);
      let expected = traced (Cache.create Cache.default_policy) spec in
      check_string (label ^ ": warm memo") expected (traced warm spec);
      check_string (label ^ ": warm memo, again") expected (traced warm spec);
      let direct = Obs.create ~session:7 () in
      ignore (Trust_analyze.Lint.check_spec ~obs:direct ~deep:false spec : Diagnostic.t list);
      let admitted = Obs.create ~session:7 () in
      ignore (Cache.admission ~obs:admitted warm spec : string option);
      check_string (label ^ ": the span Lint.check_spec records") (export direct)
        (export admitted))
    [
      ("clean", load "clean.exg", None);
      ("warnings", load "tl014_over_pledged_indemnity.exg", Some Diagnostic.Warning);
      ("refused", load "tl013_double_spend.exg", Some Diagnostic.Error);
      ("override", override, None);
    ]

let () =
  Alcotest.run "serve_sched"
    [
      ("lifecycle", [ Alcotest.test_case "transitions" `Quick test_lifecycle ]);
      ( "scheduler",
        [
          Alcotest.test_case "defector isolation" `Quick test_defector_batch;
          Alcotest.test_case "deterministic batches" `Quick test_defector_batch_deterministic;
          Alcotest.test_case "retry on drops" `Quick test_retry_on_drops;
          Alcotest.test_case "defector not retried" `Quick test_defector_not_retried;
          Alcotest.test_case "bounded concurrency" `Quick test_bounded_concurrency;
          Alcotest.test_case "memoized lint span" `Quick test_memoized_lint_span;
        ] );
      ( "pool",
        [
          Alcotest.test_case "every item runs once across calls" `Quick test_pool_runs_everything;
          Alcotest.test_case "re-raises and stays usable" `Quick test_pool_propagates_failure;
          Alcotest.test_case "nested call returns" `Quick test_pool_nested;
          Alcotest.test_case "at most jobs domains after growth" `Quick test_pool_caps_helpers;
          Alcotest.test_case "scheduler calls reuse domains" `Quick test_domains_reused;
        ] );
      ( "service",
        [
          Alcotest.test_case "deterministic outcome" `Quick test_service_deterministic;
          Alcotest.test_case "jobs 1 = jobs 4, bit for bit" `Quick test_jobs_bit_identical;
          Alcotest.test_case "pool gauges quarantined" `Quick test_pool_gauges_quarantined;
        ] );
    ]
