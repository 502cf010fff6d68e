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
  drop_rate : float;
      (** per-delivery drop probability on first runs; with
          [drop_rate > 0] a drop-stalled session is retried once *)
  seed : int64;  (** fault-injection stream seed *)
  compiled : bool;
      (** execute cached compiled plans on the {!Trust_sim.Hotpath}
          runtime (default), traced or not — allocation-free when
          untraced; [false] forces the interpreted engine everywhere —
          the reference the benchmarks and the property tests compare
          against. Every cache entry carries a compiled plan,
          acceptability overrides included, so [true] runs every
          session compiled. *)
  sample_rate : float;
      (** fraction of sessions head-sampled into the trace when
          tracing is on ({!run} given a batch or a ring, or a daemon
          with a ring or a trace file). The verdict is
          {!session_sampled}: {!Trust_obs.Sampler.decision} on
          [(seed, session id)] — deterministic, jobs-independent, and
          monotone in the rate. Every session runs untraced; a kept
          one's trace is rebuilt from its capture.
          [1.0] (this default) traces everything, preserving the
          pre-sampling behaviour of batch [--trace]; the daemon's
          default config sets [0.01]. *)
}

val default_config : config
(** 8 lanes, 1 job, deadline 1000, latency 1, 100k events, no drops,
    seed 1, compiled path on, sample rate 1.0. *)

type stats = {
  makespan : int;  (** max lane clock after the batch, >= 1 per session *)
  retried : int;
}

type recorders
(** The scheduler's metric families (session, cache, engine, exposure
    and [obs_*] counters and histograms), registered once in a
    {!Metrics.t} and bumped per session. *)

val recorders : Metrics.t -> recorders
(** Register (or, by name, resolve) every scheduler family in the
    registry. Long-lived callers build this once and pass it to each
    {!process_one} and {!retain}. *)

type tally = { settled : int; expired : int; aborted : int }

val tally : recorders -> tally
(** The closed sessions counted so far in [serve_sessions_settled_total],
    [serve_sessions_expired_total] and [serve_sessions_aborted_total]
    (admission refusals and synthesis failures). *)

val process_one :
  ?recorders:recorders ->
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  config ->
  Cache.t ->
  Session.t ->
  unit
(** Drive a single session through the full lifecycle (admission lint,
    cached synthesis, engine run with retry-once, audit, classification)
    on the calling domain, recording into [recorders] when given. No
    virtual-lane placement happens — long-lived services measure
    wall-clock latency instead. The session record carries the outcome
    ([session.status], ticks, events, exposure tallies). With a live
    [obs] the session runs as a sampled one under {!process_traced},
    and {!rebuild} then writes its trace into [obs], the root parented
    under [parent]. *)

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

type capture
(** What a kept session's trace is rebuilt from, taken while its
    untraced run went: the {!keep_decision} verdict, the closed session
    record, the admission lint's memo record (none for a deny-listed
    shape), the synthesis outcome, and each compiled run as
    {!Trust_sim.Hotpath.capture} copied it out of the runtime's scratch
    — the first attempt at the retry, the last after the session
    closed. A session that ran on the interpreted engine
    ([compiled = false]) keeps its cache entry instead. *)

val process_traced :
  ?recorders:recorders -> sampled:bool -> config -> Cache.t -> Session.t -> capture option
(** {!process_one} while tracing is on: the session runs untraced with
    capturable compiled runs, and the result is the capture {!rebuild}
    writes its trace from exactly when {!keep_decision} keeps it —
    [sampled], or a tail rule fired; [None] otherwise. *)

val rebuild :
  ?parent:Trust_obs.Obs.handle -> config -> Cache.t -> Trust_obs.Obs.t -> capture -> unit
(** Write the trace of a kept session from its capture: the root
    [session.N] span (under [parent]) with its admission-lint,
    synthesis, simulate and audit children and the outcome attributes
    on the root. This is the only writer of a serve session's trace,
    head-sampled and tail-kept alike. Admission and synthesis do not
    run again, and neither do compiled runs; runs on the interpreted
    engine, which keeps nothing to capture, run again from their cache
    entry with a live sink — the independent reference the
    [--no-compiled] traces are compared against. *)

val replay :
  ?parent:Trust_obs.Obs.handle -> config -> Cache.t -> Trust_obs.Obs.t -> Session.t -> Session.t
(** The re-run reference: run a fresh copy of a closed session through
    the whole lifecycle again and rebuild its trace into the sink —
    determinism makes it byte-identical to the trace keeping the
    original wrote, and the tests hold the two together. Metrics are
    not recorded (nothing double-counts); the protocol cache does see a
    second admission and synthesis, typically hits. Returns the
    replayed session record. *)

val retain :
  ?recorders:recorders ->
  ?ring:Trust_obs.Ring.t ->
  sampled:bool ->
  capture option ->
  trace:(unit -> Trust_obs.Obs.t) ->
  Trust_obs.Obs.t option
(** The retention step at session close, shared by {!run} and the
    daemon: [retain ~sampled captured ~trace] keeps the session iff
    [captured] is [Some] (for the reason it carries) or — a daemon
    request that never made a session — [sampled]. A kept session's
    trace comes from [trace] (the caller's {!rebuild} from the capture,
    into a sink the caller owns); [retain] stamps [keep] on its first
    root, commits it to [ring], and returns it ([None] when nothing is
    kept). Bumps [obs_sessions_sampled_total] and
    [obs_sessions_kept_tail_total] in [recorders]; what the ring holds
    and drops each caller registers as reads of the ring
    ({!Metrics.gauge_read}, {!Metrics.counter_read}). Callers run it
    only when some trace sink is attached. *)

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

    When [obs] is an enabled {!Trust_obs.Obs.batch}, each kept
    session's trace goes into its own slot: a root [session.N] span with
    admission-lint, synthesis, simulate and audit children, plus a
    [serve.place] child added during the sequential merge phase. Slots
    are written by exactly one domain each and published by the
    completion barrier, so span sets are byte-identical at any [jobs];
    cache hit/miss — which races across jobs — is recorded as a
    volatile attribute that exporters skip.

    Tracing engages the sampler: every session runs untraced, and at
    close {!retain} either drops it or commits it — a session passing
    {!session_sampled} or promoted by a tail rule gets its slot filled
    first by {!rebuild} from what its run captured, so the batch export
    and the [ring] carry its full spans. Ring commits happen on the worker domain at session
    close (each domain owns a shard), so they carry the execution
    spans but {e not} the merge-phase [serve.place] annotation, which
    exists only in the batch export. Which sessions share a shard, and
    so what a wrapping ring evicts, depends on domain scheduling at
    [jobs > 1]: the ring's live bytes and drop count are registered as
    the volatile gauges [obs_ring_bytes] and
    [obs_ring_records_dropped_total], read from the ring whenever the
    registry renders. The [obs_*] counters —
    [obs_sessions_sampled_total] and [obs_sessions_kept_tail_total] —
    are deterministic. *)
