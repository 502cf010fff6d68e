(** The multi-session exchange service: generate a workload, push it
    through the protocol cache and the batch scheduler, and report.

    Everything in {!report} and {!json} is deterministic in the config
    (virtual ticks, counts, rates): two runs with the same seed are
    byte-identical, and runs differing only in [jobs] differ only in
    the [jobs] config echo and the [serve_pool_*] gauges. Wall-clock
    throughput is reported separately by {!wall_line} so it can never
    contaminate the snapshot. *)

type config = {
  sessions : int;
  seed : int64;
  mix : Workload.Gen.mix;  (** random-transaction mix for the workload *)
  concurrency : int;
  jobs : int;  (** worker domains for the scheduler, >= 1 *)
  mode : Trust_sim.Harness.mode;
  rescue : bool;
  verify_cache : bool;
  cache_capacity : int;
  drop_rate : float;
      (** per-delivery drop probability on first runs; drop-stalled
          sessions are retried once with drops off *)
  defect_every : int option;
      (** inject a [Silent] defector into every n-th session, per
          {!Trust_sim.Harness.injected_defectors}, for adversarial
          batches *)
  trace : bool;
      (** record a per-session {!Trust_obs.Obs} trace for the whole
          batch; off by default — the null sink costs nothing *)
  compiled : bool;
      (** run cached compiled plans on the allocation-free
          {!Trust_sim.Hotpath} runtime (default); [false] benchmarks
          the interpreted reference path *)
  sample_rate : float;
      (** fraction of sessions head-sampled into the trace when
          tracing is on — deterministic and monotone per
          {!Trust_obs.Sampler}; [1.0] (default) traces everything *)
  trace_ring : int;
      (** capacity in bytes of the binary ring sink (sharded one
          buffer per worker domain); [0] (default) disables it *)
}

val default : config
(** 100 sessions, seed 42, default mix, 8 lanes, 1 job, Lockstep,
    rescue on, compiled path on, sample rate 1.0, no ring. The cache
    policy is {!Cache.default_policy} with [mode], [rescue] and
    [verify_cache]; the engine deadline, latency and event budget are
    {!Scheduler.default_config}'s. *)

type outcome = {
  config : config;
  sessions : Session.t list;
  metrics : Metrics.t;
  cache : Cache.t;
  stats : Scheduler.stats;
  wall_seconds : float;
  obs : Trust_obs.Obs.batch;
      (** the batch trace registry — disabled unless [config.trace];
          pass {!Trust_obs.Obs.batch_traces} to {!Trust_obs.Obs.export} *)
  ring : Trust_obs.Ring.t option;
      (** the binary ring sink, present iff [config.trace_ring > 0] —
          dump/decode it with {!Trust_obs.Ring} *)
}

type exposure_tally = {
  peak : int;  (** worst per-session peak at-risk value, in cents *)
  risk_ticks : int;  (** at-risk virtual ticks summed over sessions *)
  violations : int;  (** single-transfer bound violations over sessions *)
  at_risk_sessions : int;  (** sessions whose peak at-risk was positive *)
}

val exposure_tally : Session.t list -> exposure_tally
(** Batch-level aggregate of the per-session {!Trust_sim.Exposure}
    ledgers maintained by the scheduler. *)

val sessions_of_config : config -> Session.t list
(** The deterministic workload for a config: [sessions] random
    transactions from [mix] seeded by [seed], as fresh session records
    (with defectors injected per [defect_every]). {!run} generates its
    own; exposed so benchmarks can replay the identical workload
    against a pre-warmed cache. *)

val run : config -> outcome

val report : Format.formatter -> outcome -> unit
(** The deterministic batch report: session tallies, cache statistics,
    makespan, virtual throughput, and the full metrics snapshot. *)

val json : outcome -> string
(** The same snapshot as JSON (deterministic; no wall-clock values). *)

val wall_line : outcome -> string
(** Wall-clock throughput, e.g. ["wall 0.182s, 549.5 sessions/sec"] —
    print it to stderr, not into the snapshot. *)
