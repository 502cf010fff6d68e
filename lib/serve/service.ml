module Harness = Trust_sim.Harness
module Gen = Workload.Gen
module Prng = Workload.Prng

type config = {
  sessions : int;
  seed : int64;
  mix : Gen.mix;
  concurrency : int;
  jobs : int;
  mode : Harness.mode;
  rescue : bool;
  verify_cache : bool;
  cache_capacity : int;
  drop_rate : float;
  defect_every : int option;
  trace : bool;
  compiled : bool;  (* execute cached plans on the allocation-free runtime *)
  sample_rate : float;  (* fraction of sessions head-sampled when tracing *)
  trace_ring : int;  (* ring-sink capacity in bytes; 0 disables the ring *)
}

let default =
  {
    sessions = 100;
    seed = 42L;
    mix = Gen.default_mix;
    concurrency = 8;
    jobs = 1;
    mode = Harness.Lockstep;
    rescue = true;
    verify_cache = false;
    cache_capacity = 4096;
    drop_rate = 0.;
    defect_every = None;
    trace = false;
    compiled = true;
    sample_rate = 1.0;
    trace_ring = 0;
  }

type outcome = {
  config : config;
  sessions : Session.t list;
  metrics : Metrics.t;
  cache : Cache.t;
  stats : Scheduler.stats;
  wall_seconds : float;
  obs : Trust_obs.Obs.batch;
  ring : Trust_obs.Ring.t option;
}

let sessions_of_config (config : config) =
  let rng = Prng.create config.seed in
  let specs = Gen.random_transactions rng config.mix config.sessions in
  let every = Option.value ~default:0 config.defect_every in
  List.mapi
    (fun i spec -> Session.make ~id:i ~defectors:(Harness.injected_defectors ~every i spec) spec)
    specs

let run (config : config) =
  if config.sessions < 0 then invalid_arg "Service.run: negative session count";
  let sessions = sessions_of_config config in
  let cache =
    Cache.create ~capacity:config.cache_capacity
      {
        Cache.default_policy with
        Cache.mode = config.mode;
        rescue = config.rescue;
        verify = config.verify_cache;
      }
  in
  let metrics = Metrics.create () in
  let scheduler_config =
    {
      Scheduler.default_config with
      Scheduler.concurrency = config.concurrency;
      jobs = config.jobs;
      drop_rate = config.drop_rate;
      seed = Shape.mix64 config.seed;
      compiled = config.compiled;
      sample_rate = config.sample_rate;
    }
  in
  let obs = Trust_obs.Obs.batch ~enabled:config.trace ~sessions:config.sessions in
  let ring =
    if config.trace_ring > 0 then
      (* one shard per domain a call may use: each commits kept
         sessions into its own preallocated buffer, uncontended *)
      Some (Trust_obs.Ring.create ~shards:config.jobs ~capacity:config.trace_ring ())
    else None
  in
  (* gettimeofday, not [Sys.time]: CPU time sums over worker domains
     and would hide (or invert) any multicore speedup *)
  let started = Unix.gettimeofday () in
  let stats = Scheduler.run ~metrics ~obs ?ring scheduler_config cache sessions in
  let wall_seconds = Unix.gettimeofday () -. started in
  Metrics.gauge_read metrics ~help:"protocol cache hits over lookups" "serve_cache_hit_rate"
    (fun () -> Cache.hit_rate cache);
  Metrics.gauge metrics ~help:"sessions completed per 1000 virtual ticks"
    "serve_virtual_throughput"
    (if stats.Scheduler.makespan = 0 then 0.
     else float_of_int config.sessions *. 1000. /. float_of_int stats.Scheduler.makespan);
  Metrics.gauge metrics ~help:"virtual makespan of the batch (ticks)" "serve_makespan_ticks"
    (float_of_int stats.Scheduler.makespan);
  { config; sessions; metrics; cache; stats; wall_seconds; obs; ring }

type exposure_tally = { peak : int; risk_ticks : int; violations : int; at_risk_sessions : int }

let exposure_tally sessions =
  List.fold_left
    (fun acc (s : Session.t) ->
      {
        peak = max acc.peak s.Session.exposure_peak;
        risk_ticks = acc.risk_ticks + s.Session.exposure_ticks;
        violations = acc.violations + s.Session.exposure_violations;
        at_risk_sessions =
          (acc.at_risk_sessions + if s.Session.exposure_peak > 0 then 1 else 0);
      })
    { peak = 0; risk_ticks = 0; violations = 0; at_risk_sessions = 0 }
    sessions

let virtual_throughput outcome =
  if outcome.stats.Scheduler.makespan = 0 then 0.
  else
    float_of_int outcome.config.sessions *. 1000.
    /. float_of_int outcome.stats.Scheduler.makespan

(* the closed sessions as the registry counted them *)
let closed outcome = Scheduler.tally (Scheduler.recorders outcome.metrics)

let report ppf outcome =
  let t = closed outcome in
  let cache = outcome.cache in
  Format.fprintf ppf "== trustseq batch ==@.";
  Format.fprintf ppf "sessions    %d (settled %d, expired %d, aborted %d, retried %d)@."
    outcome.config.sessions t.Scheduler.settled t.Scheduler.expired t.Scheduler.aborted outcome.stats.Scheduler.retried;
  Format.fprintf ppf "cache       hits %d, misses %d, evictions %d (hit rate %.4f)@."
    (Cache.hits cache) (Cache.misses cache) (Cache.evictions cache) (Cache.hit_rate cache);
  Format.fprintf ppf "makespan    %d virtual ticks on %d lanes (%d worker domain%s)@."
    outcome.stats.Scheduler.makespan outcome.config.concurrency outcome.config.jobs
    (if outcome.config.jobs = 1 then "" else "s");
  Format.fprintf ppf "throughput  %.2f sessions / 1000 virtual ticks@." (virtual_throughput outcome);
  let x = exposure_tally outcome.sessions in
  Format.fprintf ppf "exposure    peak %a at-risk, %d risk ticks, %d sessions exposed, %d bound violations@."
    Exchange.Asset.pp_money x.peak x.risk_ticks x.at_risk_sessions x.violations;
  Format.fprintf ppf "-- metrics --@.%s" (Metrics.to_text outcome.metrics)

let json outcome =
  let t = closed outcome in
  let x = exposure_tally outcome.sessions in
  Printf.sprintf
    "{\"sessions\":%d,\"settled\":%d,\"expired\":%d,\"aborted\":%d,\"retried\":%d,\"cache\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"hit_rate\":%.4f},\"makespan_ticks\":%d,\"concurrency\":%d,\"jobs\":%d,\"virtual_throughput\":%.2f,\"exposure\":{\"peak_at_risk\":%d,\"risk_ticks\":%d,\"at_risk_sessions\":%d,\"violations\":%d},\"metrics\":%s}"
    outcome.config.sessions t.Scheduler.settled t.Scheduler.expired t.Scheduler.aborted outcome.stats.Scheduler.retried
    (Cache.hits outcome.cache) (Cache.misses outcome.cache) (Cache.evictions outcome.cache) (Cache.hit_rate outcome.cache)
    outcome.stats.Scheduler.makespan outcome.config.concurrency outcome.config.jobs
    (virtual_throughput outcome) x.peak x.risk_ticks x.at_risk_sessions x.violations
    (Metrics.to_json outcome.metrics)

let wall_line outcome =
  let per_sec =
    if outcome.wall_seconds > 0. then float_of_int outcome.config.sessions /. outcome.wall_seconds
    else 0.
  in
  Printf.sprintf "wall %.3fs, %.1f sessions/sec" outcome.wall_seconds per_sec
