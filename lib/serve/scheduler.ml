module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Audit = Trust_sim.Audit
module Obs = Trust_obs.Obs
module Sampler = Trust_obs.Sampler
module Ring = Trust_obs.Ring

type config = {
  concurrency : int;
  jobs : int;
  session_deadline : int;
  latency : int;
  max_events : int;
  drop_rate : float;
  seed : int64;
  compiled : bool;
  sample_rate : float;
}

let default_config =
  {
    concurrency = 8;
    jobs = 1;
    session_deadline = 1000;
    latency = 1;
    max_events = 100_000;
    drop_rate = 0.;
    seed = 1L;
    compiled = true;
    sample_rate = 1.0;
  }

type stats = { makespan : int; retried : int }

(* Stateless per-delivery fault decision: the engine hands us the
   performed-action sequence number, and the verdict depends only on
   (seed, session, seq) — deterministic whatever order sessions run in. *)
let drop_decision cfg ~session_id seq =
  let golden = 0x9E3779B97F4A7C15L and fold = 0xC2B2AE3D27D4EB4FL in
  let h =
    Shape.mix64
      (Int64.add cfg.seed
         (Int64.add
            (Int64.mul (Int64.of_int (session_id + 1)) golden)
            (Int64.mul (Int64.of_int (seq + 1)) fold)))
  in
  Shape.uniform h < cfg.drop_rate

let virtual_duration (result : Engine.result) =
  List.fold_left (fun acc (d : Engine.delivery) -> max acc d.Engine.at) 0 result.Engine.log

type recorders = {
  admitted : Metrics.counter;
  settled : Metrics.counter;
  expired : Metrics.counter;
  aborted : Metrics.counter;
  lint_rejected : Metrics.counter;
  admission_denied : Metrics.counter;
  retried_c : Metrics.counter;
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  engine_events : Metrics.counter;
  deliveries : Metrics.counter;
  ticks_h : Metrics.histogram;
  events_h : Metrics.histogram;
  exposure_violations : Metrics.counter;
  exposure_peak_h : Metrics.histogram;
  exposure_ticks_h : Metrics.histogram;
  obs_sampled : Metrics.counter;
  obs_kept_tail : Metrics.counter;
  obs_ring_dropped : Metrics.counter;
}

let recorders m =
  {
    admitted = Metrics.counter m ~help:"sessions admitted" "serve_sessions_total";
    settled = Metrics.counter m ~help:"sessions that reached every preferred outcome" "serve_sessions_settled_total";
    expired = Metrics.counter m ~help:"sessions unwound by the escrow deadline" "serve_sessions_expired_total";
    aborted = Metrics.counter m ~help:"sessions whose synthesis failed" "serve_sessions_aborted_total";
    lint_rejected = Metrics.counter m ~help:"sessions rejected by the admission linter" "serve_sessions_lint_rejected_total";
    admission_denied = Metrics.counter m ~help:"sessions refused because their shape is deny-listed by trace mining" "serve_admission_denied_total";
    retried_c = Metrics.counter m ~help:"drop-stalled sessions retried once" "serve_sessions_retried_total";
    cache_hits = Metrics.counter m ~help:"protocol cache hits" "serve_cache_hits_total";
    cache_misses = Metrics.counter m ~help:"protocol cache misses or bypasses" "serve_cache_misses_total";
    engine_events = Metrics.counter m ~help:"discrete-event engine events" "serve_engine_events_total";
    deliveries = Metrics.counter m ~help:"actions delivered" "serve_deliveries_total";
    ticks_h = Metrics.histogram m ~help:"virtual session duration (ticks)" "serve_session_ticks";
    events_h = Metrics.histogram m ~help:"engine events per session" "serve_session_events";
    exposure_violations = Metrics.counter m ~help:"single-transfer bound violations across runs" "sim_exposure_violations_total";
    exposure_peak_h = Metrics.histogram m ~help:"peak outstanding at-risk value per run (cents)" "sim_exposure_peak";
    exposure_ticks_h = Metrics.histogram m ~help:"virtual ticks with positive at-risk value per run" "sim_exposure_ticks";
    obs_sampled = Metrics.counter m ~help:"sessions head-sampled into a live trace" "obs_sessions_sampled_total";
    obs_kept_tail = Metrics.counter m ~help:"unsampled sessions promoted by a tail keep rule" "obs_sessions_kept_tail_total";
    obs_ring_dropped = Metrics.counter m ~help:"trace-ring records evicted on wrap or refused oversized" "obs_ring_records_dropped_total";
  }

let record rec_opt f = Option.iter f rec_opt

(* What one run adds to its session and to the metrics, the same on
   both runtimes: ticks and events accumulate, the exposure peak keeps
   the worst attempt, risk ticks and violations accumulate across the
   retry. *)
let account (session : Session.t) rec_opt ~duration ~events ~deliveries ~stalled ~peak
    ~risk_ticks ~violations =
  let duration = max 1 duration in
  session.Session.ticks <- session.Session.ticks + duration;
  session.Session.events <- session.Session.events + events;
  session.Session.stalled <- stalled;
  session.Session.exposure_peak <- max session.Session.exposure_peak peak;
  session.Session.exposure_ticks <- session.Session.exposure_ticks + risk_ticks;
  session.Session.exposure_violations <- session.Session.exposure_violations + violations;
  record rec_opt (fun r ->
      Metrics.incr ~by:events r.engine_events;
      Metrics.incr ~by:deliveries r.deliveries;
      Metrics.observe r.ticks_h duration;
      Metrics.observe r.events_h events;
      Metrics.observe r.exposure_peak_h peak;
      Metrics.observe r.exposure_ticks_h risk_ticks;
      if violations > 0 then Metrics.incr ~by:violations r.exposure_violations)

(* One run of an already-synthesized session on the compiled runtime:
   the cached instruction plan executes against per-domain scratch with
   no per-run protocol allocation when untraced. A live [obs] makes the
   runtime record its events and emit the simulate and audit spans.
   Verdicts, ticks, events, exposure aggregates and traces are
   identical to [run_interpreted] (property-tested in test_hotpath), so
   the two paths may be mixed freely across sessions and domains. *)
let run_compiled cfg ?obs ?parent (plan : Trust_core.Compile.t) (session : Session.t) ~drops
    rec_opt =
  session.Session.attempts <- session.Session.attempts + 1;
  let drop =
    if drops && cfg.drop_rate > 0. then
      Some (fun seq -> drop_decision cfg ~session_id:session.Session.id seq)
    else None
  in
  let config =
    {
      Trust_sim.Hotpath.latency = cfg.latency;
      deadline = cfg.session_deadline;
      max_events = cfg.max_events;
      drop;
    }
  in
  let summary =
    Trust_sim.Hotpath.exec ~config ~defectors:session.Session.defectors ?obs ?parent plan
  in
  account session rec_opt ~duration:summary.Trust_sim.Hotpath.duration
    ~events:summary.Trust_sim.Hotpath.events ~deliveries:summary.Trust_sim.Hotpath.deliveries
    ~stalled:summary.Trust_sim.Hotpath.stalled
    ~peak:(Trust_sim.Hotpath.total_peak_risk summary)
    ~risk_ticks:(Trust_sim.Hotpath.total_risk_ticks summary)
    ~violations:summary.Trust_sim.Hotpath.violations;
  if summary.Trust_sim.Hotpath.all_preferred && summary.Trust_sim.Hotpath.stalled = 0 then
    Session.Settled
  else Session.Expired

(* One engine run of an already-synthesized session on the interpreted
   reference engine: the test oracle ([compiled = false]) and the
   fallback for specs with acceptability overrides, which are never
   compiled. *)
let run_interpreted cfg ?(obs = Obs.null) ?parent (entry : Cache.entry) policy
    (session : Session.t) ~drops rec_opt =
  session.Session.attempts <- session.Session.attempts + 1;
  let drop =
    if drops && cfg.drop_rate > 0. then
      Some (fun seq _action -> drop_decision cfg ~session_id:session.Session.id seq)
    else None
  in
  let engine_config =
    {
      Engine.default_config with
      Engine.latency = cfg.latency;
      deadline = cfg.session_deadline;
      max_events = cfg.max_events;
      drop;
    }
  in
  let behaviors =
    Harness.behaviors_for ~shared:policy.Cache.shared ?plan:entry.Cache.plan
      ~defectors:session.Session.defectors ~mode:policy.Cache.mode entry.Cache.split_spec
      entry.Cache.protocol
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
  let result = Harness.run_cast ~config:engine_config ~obs ?parent cast in
  let exposure =
    Trust_sim.Exposure.of_result ?plan:entry.Cache.plan
      ~defectors:(List.map fst session.Session.defectors)
      entry.Cache.split_spec result
  in
  account session rec_opt ~duration:(virtual_duration result) ~events:result.Engine.events
    ~deliveries:(List.length result.Engine.log)
    ~stalled:(List.length result.Engine.stalled)
    ~peak:(Trust_sim.Exposure.total_peak_at_risk exposure)
    ~risk_ticks:(Trust_sim.Exposure.total_risk_ticks exposure)
    ~violations:(List.length exposure.Trust_sim.Exposure.violations);
  let report =
    Audit.audit ~obs ?parent session.Session.spec ?plan:entry.Cache.plan
      ~defectors:(List.map fst session.Session.defectors)
      result
  in
  if report.Audit.all_preferred && result.Engine.stalled = [] then Session.Settled
  else Session.Expired

(* Traced or not, every compiled entry runs on the compiled runtime;
   the two paths agree on every observable outcome and span. *)
let run_once cfg ?obs ?parent (entry : Cache.entry) policy (session : Session.t) ~drops rec_opt =
  match entry.Cache.compiled with
  | Some plan when cfg.compiled -> run_compiled cfg ?obs ?parent plan session ~drops rec_opt
  | Some _ | None -> run_interpreted cfg ?obs ?parent entry policy session ~drops rec_opt

(* The whole lifecycle of one session — admission lint, synthesis
   through the cache, engine run(s), classification — with no shared
   state beyond the (sharded) cache, the (atomic) metrics and the
   [retried] tally. Sessions are independent end-to-end and the drop
   schedule is keyed on (seed, session, seq), so this runs bit-for-bit
   identically from any domain in any order. *)
let process_session ?parent cfg cache policy rec_opt retried obs (session : Session.t) =
  Obs.with_span obs ?parent ~phase:"session"
    (if Obs.enabled obs then Printf.sprintf "session.%d" session.Session.id else "session")
    (fun root ->
  record rec_opt (fun r -> Metrics.incr r.admitted);
  Session.transition session Session.Synthesizing;
  (* Admission lint: structural (cheap) rules only — error-level
     diagnostics abort the session before any synthesis work. Traced or
     not, the verdict comes from the cache's per-shape memo, which also
     keeps the tallies a traced session's lint span carries. *)
  let lint_reason =
    (* the trace-mining deny list outranks the linter: a deny-listed
       shape is refused before any lint or synthesis work, traced or
       not (the verdict is a lock-free set lookup, identical on both
       paths) *)
    match Cache.denied_reason cache session.Session.spec with
    | Some _ as denied -> denied
    | None ->
    Cache.admission ~obs ~parent:root cache session.Session.spec
  in
  (match lint_reason with
  | Some reason ->
    Session.transition session (Session.Aborted reason);
    (* an admission slot is never free, even to reject *)
    session.Session.ticks <- 1;
    let denied = String.length reason >= 7 && String.sub reason 0 7 = "denied:" in
    record rec_opt (fun r ->
        if denied then Metrics.incr r.admission_denied else Metrics.incr r.lint_rejected;
        Metrics.incr r.aborted)
  | None ->
    let verdict, outcome =
      (* Which of two racing sessions takes the miss for a shared shape
         depends on domain scheduling, so hit/miss is volatile; the
         bypass decision (Shape.cacheable) and the verify flag are
         functions of the spec and policy alone, hence deterministic. *)
      Obs.with_span obs ~parent:root ~phase:"serve" "serve.synthesize" (fun h ->
          let verdict, outcome = Cache.synthesize cache session.Session.spec in
          if Obs.enabled obs then begin
            Obs.attr obs h "bypass" (Obs.Bool (outcome = `Bypass));
            Obs.attr obs h "verify" (Obs.Bool policy.Cache.verify);
            Obs.volatile_attr obs h "cache_hit" (Obs.Bool (outcome = `Hit))
          end;
          (verdict, outcome))
    in
    session.Session.cache_hit <- outcome = `Hit;
    record rec_opt (fun r ->
        match outcome with
        | `Hit -> Metrics.incr r.cache_hits
        | `Miss | `Bypass -> Metrics.incr r.cache_misses);
    (match verdict with
    | Error e ->
      Session.transition session (Session.Aborted e);
      (* an admission slot is never free, even to reject *)
      session.Session.ticks <- 1;
      record rec_opt (fun r -> Metrics.incr r.aborted)
    | Ok entry -> (
      Session.transition session Session.Running;
      let status = run_once cfg ~obs ~parent:root entry policy session ~drops:true rec_opt in
      Session.transition session status;
      match status with
      | Session.Expired when cfg.drop_rate > 0. ->
        (* Stalled under injected drops: requeue once and retransmit
           over a reliable path (drops off). A second expiry sticks. *)
        ignore (Atomic.fetch_and_add retried 1);
        record rec_opt (fun r -> Metrics.incr r.retried_c);
        Session.transition session Session.Queued;
        Session.transition session Session.Synthesizing;
        Session.transition session Session.Running;
        Session.transition session
          (run_once cfg ~obs ~parent:root entry policy session ~drops:false rec_opt)
      | _ -> ())));
  if Obs.enabled obs then begin
    (* deterministic outcome facts on the session root: everything the
       trace miner (Trust_obs.Mine) needs to attribute the session to
       its spec shape and classify the incident — all pure functions of
       the session record, so identical at any --jobs *)
    Obs.attr obs root "shape" (Obs.Str (Shape.hash_hex session.Session.spec));
    Obs.attr obs root "status" (Obs.Str (Session.status_label session.Session.status));
    Obs.attr obs root "attempts" (Obs.Int session.Session.attempts);
    Obs.attr obs root "ticks" (Obs.Int session.Session.ticks);
    Obs.attr obs root "events" (Obs.Int session.Session.events);
    Obs.attr obs root "violations" (Obs.Int session.Session.exposure_violations);
    Obs.attr obs root "exposure_ticks" (Obs.Int session.Session.exposure_ticks)
  end;
  match session.Session.status with
  | Session.Settled -> record rec_opt (fun r -> Metrics.incr r.settled)
  | Session.Expired -> record rec_opt (fun r -> Metrics.incr r.expired)
  | _ -> ())

let process_one ?recorders ?(obs = Obs.null) ?parent cfg cache (session : Session.t) =
  let retried = Atomic.make 0 in
  process_session ?parent cfg cache (Cache.policy cache) recorders retried obs session

(* -- production tracing: head sampling, tail keep rules, ring sink -- *)

let session_sampled cfg id = Sampler.decision ~seed:cfg.seed ~rate:cfg.sample_rate id

(* Tail keep rules, most severe first: a §5 exposure-bound violation
   outranks a retry (something actually went wrong with the money),
   a retry outranks a plain expiry (the first attempt also expired),
   and a lint refusal is kept because rejected specs are exactly what
   an operator wants to see. All four are functions of the session
   record alone, so the verdict is identical whether the session ran
   traced or on the compiled fast path. *)
let tail_reason (session : Session.t) =
  if session.Session.exposure_violations > 0 then Some Ring.Violation
  else if session.Session.attempts > 1 then Some Ring.Retry
  else
    match session.Session.status with
    | Session.Expired -> Some Ring.Expiry
    | Session.Aborted r when String.length r >= 5 && String.sub r 0 5 = "lint:" -> Some Ring.Lint
    | _ -> None

let keep_decision ~sampled session =
  if sampled then Some Ring.Sampled else tail_reason session

(* Materialize the trace of a session that ran unsampled: re-run a
   fresh copy through the full lifecycle with a live sink (on the same
   compiled runtime, now recording events). Every input the run depends on —
   spec, defectors, the (seed, session, seq)-keyed drop schedule — is
   identical, so the replayed trace is byte-for-byte what head
   sampling would have recorded. Only rare tail-kept sessions pay the
   second run; metrics are not passed, so nothing double-counts (the
   protocol cache does see a second synthesize, typically a hit). *)
let replay ?parent cfg cache trace (session : Session.t) =
  let fresh =
    Session.make ~id:session.Session.id ~defectors:session.Session.defectors session.Session.spec
  in
  let retried = Atomic.make 0 in
  process_session ?parent cfg cache (Cache.policy cache) None retried trace fresh;
  fresh

(* The one retention step both front doors share. A head-sampled
   session already ran under its live [trace]; an unsampled one that a
   tail rule keeps is re-run through [replay] (into whatever sink the
   caller owns). The keep verdict is then stamped on the root after the
   fact (attrs on finished spans don't tick the clock): ring dumps and
   the JSONL export agree on why each session was retained, which is
   what lets Mine fold either one identically. The ring commit runs on
   the calling domain, so under [run] it lands in the shard that domain
   adopted (under that shard's lock). *)
let retain ?recorders ?ring ~sampled trace session ~replay =
  if sampled then record recorders (fun r -> Metrics.incr r.obs_sampled);
  let keep =
    match session with
    | Some session -> keep_decision ~sampled session
    | None -> if sampled then Some Ring.Sampled else None
  in
  Option.map
    (fun keep ->
      let trace =
        if sampled then trace
        else begin
          record recorders (fun r -> Metrics.incr r.obs_kept_tail);
          replay ()
        end
      in
      Obs.attr trace (Obs.first_root trace) "keep" (Obs.Str (Ring.keep_label keep));
      Option.iter
        (fun ring ->
          let evicted = Ring.record ring ~keep trace in
          if evicted > 0 then record recorders (fun r -> Metrics.incr ~by:evicted r.obs_ring_dropped))
        ring;
      trace)
    keep

let run ?metrics ?(obs = Obs.no_batch) ?ring cfg cache sessions =
  if cfg.concurrency < 1 then invalid_arg "Scheduler.run: concurrency must be >= 1";
  if cfg.jobs < 1 then invalid_arg "Scheduler.run: jobs must be >= 1";
  let rec_opt = Option.map recorders metrics in
  let retried = Atomic.make 0 in
  let policy = Cache.policy cache in
  (* Tracing (batch export and/or ring sink) engages the sampler:
     sampled sessions run with a live trace, everything else runs
     untraced — allocation-free — and is only looked at again by the
     tail keep rules at close. *)
  let tracing = Obs.batch_enabled obs || Option.is_some ring in
  let slot_trace (session : Session.t) =
    (* Each slot of the batch registry is touched by exactly one
       domain — the one running its session — so traces need no
       locking; the team's completion barrier publishes them before
       the merge phase.
       Ring-only runs (no batch export) use a standalone trace. *)
    if Obs.batch_enabled obs then Obs.session_trace obs session.Session.id
    else Obs.create ~session:session.Session.id ()
  in
  let process (session : Session.t) =
    let sampled = tracing && session_sampled cfg session.Session.id in
    let trace = if sampled then slot_trace session else Obs.null in
    process_session cfg cache policy rec_opt retried trace session;
    if tracing then
      (* tail promotion replays into the batch slot (or a standalone
         trace) so the durable export carries it alongside the
         head-sampled set *)
      ignore
        (retain ?recorders:rec_opt ?ring ~sampled trace (Some session) ~replay:(fun () ->
             let slot = slot_trace session in
             ignore (replay cfg cache slot session : Session.t);
             slot)
          : Obs.t option)
  in
  (* Phase 1 — execute. Every session owns its mutable record, the
     cache is sharded behind per-shard locks and the metrics are
     atomic, so whole sessions run in parallel; the team's completion
     barrier publishes their writes before the merge reads them. *)
  if cfg.jobs = 1 then List.iter process sessions
  else begin
    Pool.run ~jobs:cfg.jobs process (Array.of_list sessions);
    Option.iter
      (fun m ->
        Metrics.gauge m ~help:"domains a call may run sessions on (helpers plus the caller)"
          "serve_pool_workers" (float_of_int cfg.jobs);
        (* parking depends on OS scheduling, not on the seed — volatile
           keeps it out of the deterministic snapshot (rendered on
           stderr instead) *)
        Metrics.gauge m ~help:"times a team helper parked waiting for work, process lifetime"
          ~volatile:true "serve_pool_worker_waits" (float_of_int (Pool.parks ())))
      metrics
  end;
  (* Phase 2 — merge in submission order. Lane placement is pure
     bookkeeping over per-session virtual durations, so replaying it
     sequentially here gives the identical placement, makespan and
     metrics at any [jobs]. *)
  let lanes = Array.make cfg.concurrency 0 in
  let least_loaded () =
    let best = ref 0 in
    Array.iteri (fun i t -> if t < lanes.(!best) then best := i) lanes;
    !best
  in
  List.iter
    (fun (session : Session.t) ->
      let lane = least_loaded () in
      session.Session.started_at <- lanes.(lane);
      session.Session.finished_at <- session.Session.started_at + session.Session.ticks;
      lanes.(lane) <- session.Session.finished_at;
      (* Placement replays identically at any [jobs] (sequential, in
         submission order, over per-session virtual durations), so it
         may ride in the deterministic trace as a child of the root. *)
      let trace = Obs.session_trace obs session.Session.id in
      if Obs.enabled trace then
        Obs.with_span trace ~parent:(Obs.first_root trace) ~phase:"serve" "serve.place"
          (fun h ->
            Obs.attr trace h "lane" (Obs.Int lane);
            Obs.attr trace h "started_at" (Obs.Int session.Session.started_at);
            Obs.attr trace h "finished_at" (Obs.Int session.Session.finished_at)))
    sessions;
  (match (metrics, ring) with
  | Some m, Some ring ->
    (* which records survive eviction in which shard depends on domain
       scheduling at jobs > 1, so residency is volatile here — the
       single-threaded daemon registers the same gauge deterministically *)
    Metrics.gauge m ~help:"trace-ring live bytes" ~volatile:true "obs_ring_bytes"
      (float_of_int (Ring.bytes_resident ring))
  | _ -> ());
  let makespan = Array.fold_left max 0 lanes in
  { makespan; retried = Atomic.get retried }
