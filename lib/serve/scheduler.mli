(** The deterministic batch scheduler.

    Engine runs are synchronous, so concurrency is modelled, not
    threaded: the scheduler keeps [concurrency] virtual lanes, admits
    sessions in arrival order to the least-loaded lane (ties to the
    lowest lane), and advances each lane's clock by the virtual
    duration of the session's run. The resulting placement, lane
    clocks, makespan and every metric are pure functions of the inputs
    — two runs with the same sessions and seed are byte-identical.

    Real parallelism is orthogonal to the virtual lanes: with
    [jobs > 1] whole sessions execute on the calling domain and up to
    [jobs - 1] helpers of the process-wide {!Pool} team, which persists
    across calls (each session's mutable record is written by exactly
    one domain, the cache is sharded, the metrics are atomic), and
    lane placement is replayed sequentially in submission order
    {e after} the team's completion barrier. Verdicts, traces, drop
    schedules, metrics and makespan are therefore bit-for-bit
    identical at any [jobs]; in the snapshot only the
    [serve_pool_workers] gauge varies with it, and the
    timing-dependent helper parking count is registered as a
    {e volatile} gauge that never enters the snapshot at all.

    Faults: with [drop_rate > 0] the first run of each session drops
    each delivery independently with that probability, from a stateless
    per-(seed, session, action) hash — no PRNG state is shared across
    sessions, so placement never perturbs fault patterns. A session
    whose faulted run expires is requeued once ([Expired → Queued]) and
    retried on the same lane with drops off, modelling retransmission
    over a reliable path; a session that expires for protocol reasons
    (a defector) is {e not} retried when fault injection is off. *)

type config = {
  concurrency : int;  (** virtual lanes, >= 1 *)
  jobs : int;  (** worker domains, >= 1; 1 = run on the calling domain *)
  session_deadline : int;  (** per-session engine escrow deadline (ticks) *)
  latency : int;  (** per-session engine delivery latency *)
  max_events : int;
  drop_rate : float;  (** per-delivery drop probability on first runs *)
  retry : bool;  (** retry-once for drop-stalled sessions *)
  seed : int64;  (** fault-injection stream seed *)
  compiled : bool;
      (** execute cached compiled plans on the {!Trust_sim.Hotpath}
          runtime (default), traced or not — allocation-free when
          untraced; [false] forces the interpreted engine everywhere —
          the reference the benchmarks and the property tests compare
          against. Specs with acceptability overrides are never
          compiled and always run interpreted. *)
  sample_rate : float;
      (** fraction of sessions head-sampled into a live trace when
          tracing is on ({!run} given a batch or a ring). The verdict
          is {!Trust_obs.Sampler.decision} on [(seed, session id)] —
          deterministic, jobs-independent, and monotone in the rate —
          and unsampled sessions run untraced.
          [1.0] (the default) traces everything, preserving the
          pre-sampling behaviour of [--trace]. *)
}

val default_config : config
(** 8 lanes, 1 job, deadline 1000, latency 1, 100k events, no drops,
    retry on, seed 1, compiled path on, sample rate 1.0. *)

type stats = {
  makespan : int;  (** max lane clock after the batch, >= 1 per session *)
  retried : int;
}

val process_one :
  ?metrics:Metrics.t ->
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  config ->
  Cache.t ->
  Session.t ->
  unit
(** Drive a single session through the full lifecycle (admission lint,
    cached synthesis, engine run with retry-once, audit, classification)
    on the calling domain, recording into [metrics] when given. This is
    the daemon's per-request entry point: no virtual-lane placement
    happens — long-lived services measure wall-clock latency instead —
    and the session's root span is parented under [parent] (the
    daemon's per-request span) when tracing. The session record carries
    the outcome ([session.status], ticks, events, exposure tallies). *)

val session_sampled : config -> int -> bool
(** The head-sampling verdict for a session id under this config's
    [seed] and [sample_rate] — {!Trust_obs.Sampler.decision}, exposed
    so the daemon and the tests apply the exact batch rule. *)

val tail_reason : Session.t -> Trust_obs.Ring.keep option
(** The tail keep rule over a closed session, most severe first:
    [Violation] if any §5 exposure-bound violation was tallied, else
    [Retry] if the session ran more than one attempt, else [Expiry] if
    it expired, else [Lint] if admission lint refused it; [None] for
    an unremarkable session. A pure function of the session record, so
    traced and fast-path runs get identical verdicts. *)

val keep_decision : sampled:bool -> Session.t -> Trust_obs.Ring.keep option
(** What to retain at session close: head-sampled sessions are kept as
    [Sampled]; unsampled ones are promoted iff {!tail_reason} fires. *)

val replay :
  ?parent:Trust_obs.Obs.handle -> config -> Cache.t -> Trust_obs.Obs.t -> Session.t -> Session.t
(** Re-run a fresh copy of a (closed, unsampled) session with a live
    trace sink, materializing the spans head sampling would have
    recorded — determinism makes the two byte-identical. Metrics are
    not recorded (nothing double-counts); the protocol cache does see
    a second synthesis, typically a hit. Returns the replayed session
    record. *)

val run :
  ?metrics:Metrics.t ->
  ?obs:Trust_obs.Obs.batch ->
  ?ring:Trust_obs.Ring.t ->
  config ->
  Cache.t ->
  Session.t list ->
  stats
(** Drive every session through its lifecycle: synthesize through the
    cache, rebuild fresh behaviours, run the engine with the session's
    deadline, audit, classify ([Settled] iff the audit reached every
    party's preferred outcome). When [metrics] is given, records
    session counters, engine event counters and tick/event histograms,
    plus the [serve_pool_*] gauges when [jobs > 1]. If sessions raise,
    re-raises the first exception once every session has run.

    When [obs] is an enabled {!Trust_obs.Obs.batch}, each session
    records into its own trace slot: a root [session.N] span with
    admission-lint, synthesis, simulate and audit children, plus a
    [serve.place] child added during the sequential merge phase. Slots
    are written by exactly one domain each and published by the
    completion barrier, so span sets are byte-identical at any [jobs];
    cache hit/miss — which races across jobs — is recorded as a
    volatile attribute that exporters skip.

    Tracing engages the sampler: only sessions passing
    {!session_sampled} run with a live trace (the rest run untraced,
    allocation-free), and at close {!keep_decision} either
    drops the session or commits it — tail-promoted sessions are
    {!replay}ed first so the batch export and the [ring] carry their
    full spans. Ring commits happen on the worker domain at session
    close (each domain owns a shard), so they carry the execution
    spans but {e not} the merge-phase [serve.place] annotation, which
    exists only in the batch export; the ring's live-byte residency is
    published as a volatile [obs_ring_bytes] gauge (eviction order is
    scheduling-dependent at [jobs > 1]), while the [obs_*] counters
    are deterministic. *)
