(* The in-process half: replay a workload's request stream through the
   program's layers, calling each layer's public functions from here.
   [run] serves the stream the way the daemon does, untimed or with a
   clock read around each layer call (the only difference between the
   two); the side passes time admission, the miss path stage by stage,
   the hot path, and the pool; [outcomes] is the fast reference for the
   end-to-end outcome check. *)

open Exchange
module Cache = Trust_serve.Cache
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Shape = Trust_serve.Shape
module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring
module Wire = Trust_daemon.Wire
module Frame = Trust_daemon.Frame
module Harness = Trust_sim.Harness
module Feasibility = Trust_core.Feasibility

let outcome_of_session (s : Session.t) =
  {
    Stats.status =
      (match s.Session.status with
      | Session.Settled -> "settled"
      | Session.Expired -> "expired"
      | Session.Aborted _ -> "aborted"
      | Session.Queued | Session.Synthesizing | Session.Running -> "error");
    ticks = s.Session.ticks;
    events = s.Session.events;
    attempts = s.Session.attempts;
    exposure_peak = s.Session.exposure_peak;
    exposure_ticks = s.Session.exposure_ticks;
    exposure_violations = s.Session.exposure_violations;
  }

let parse_error =
  {
    Stats.status = "error";
    ticks = 0;
    events = 0;
    attempts = 0;
    exposure_peak = 0;
    exposure_ticks = 0;
    exposure_violations = 0;
  }

(* How a stream is served: the scheduler config, the injected-defector
   period, and whether the cache ages like the daemon's. *)
type setting = { cfg : Scheduler.config; defect_every : int; aging : bool }

let daemon_setting =
  { cfg = Workloads.daemon_scheduler; defect_every = 0; aging = true }

(* batch-defect's faults: drops, a silent defector every 7th session *)
let adversarial_setting seed =
  {
    cfg = Workloads.batch_scheduler seed ~jobs:1;
    defect_every = Workloads.batch_defect_every;
    aging = false;
  }

type request = { id : int; text : string }

type timers = {
  wire : Samples.t;  (** request + response, encode and decode, per request *)
  elaborate : Samples.t;
  session_hit : Samples.t;
  session_miss : Samples.t;
  keep : Samples.t;  (** keep decision, tail replay, ring commit *)
  tail_replay : Samples.t;
  stage_sum : Samples.t;  (** per request in the timed slice: the sum of the above *)
}

let timers () =
  {
    wire = Samples.create ();
    elaborate = Samples.create ();
    session_hit = Samples.create ();
    session_miss = Samples.create ();
    keep = Samples.create ();
    tail_replay = Samples.create ();
    stage_sum = Samples.create ();
  }

type pass = {
  outcomes : Stats.outcome array;
  cache : Cache.t;
  ring : Ring.t;
  wall_s : float;
  timers : timers option;
  missed : int list;  (** request indices whose synthesis missed the cache *)
  hit : int list;  (** request indices served by a cache hit *)
}

let lint_refused (s : Session.t) =
  match s.Session.status with
  | Session.Aborted r -> String.starts_with ~prefix:"lint:" r || String.starts_with ~prefix:"denied:" r
  | _ -> false

let wire_request decoder ~id text =
  let frame = Frame.encode (Wire.encode_request (Wire.Submit { id; spec = text })) in
  match Frame.feed_string decoder frame with
  | [ Frame.Frame payload ] -> (
    match Wire.decode_request payload with
    | Ok (Wire.Submit { spec; _ }) -> spec
    | Ok _ | Error _ -> failwith "wire: request did not round-trip")
  | _ -> failwith "wire: request frame did not reassemble"

let wire_response decoder ~id (o : Stats.outcome) ~cache_hit =
  let resp =
    Wire.Result
      {
        id;
        status = o.Stats.status;
        exit_code = (if o.Stats.status = "settled" then 0 else 1);
        cache_hit;
        ticks = o.Stats.ticks;
        events = o.Stats.events;
        attempts = o.Stats.attempts;
        exposure_peak = o.Stats.exposure_peak;
        exposure_ticks = o.Stats.exposure_ticks;
        exposure_violations = o.Stats.exposure_violations;
        reason = None;
      }
  in
  match Frame.feed_string decoder (Frame.encode (Wire.encode_response resp)) with
  | [ Frame.Frame payload ] -> (
    match Wire.decode_response payload with
    | Ok _ -> ()
    | Error e -> failwith ("wire: response did not round-trip: " ^ e))
  | _ -> failwith "wire: response frame did not reassemble"

(* One request the way the daemon serves it: wire in, elaborate (under
   a daemon.request span when head-sampled), the session lifecycle
   (admission included), the keep decision with tail-promotion replay
   and ring commit, wire out; the cache ages every 256 requests. [first_timed]
   splits the warm-up prefix from the measured slice: stage sums are
   reconciled over the latter only. *)
let run ~timed ?(first_timed = 0) setting requests =
  let cfg = setting.cfg in
  let cache = Cache.create Cache.default_policy in
  let ring = Ring.create ~capacity:Workloads.daemon_ring () in
  let sampling = { cfg with Scheduler.sample_rate = Workloads.daemon_sample } in
  let decoder = Frame.create () in
  let tm = if timed then Some (timers ()) else None in
  (* the traced stages of the current request, summed *)
  let staged = ref 0. in
  let clock f =
    match tm with
    | None -> (f (), 0.)
    | Some _ ->
      let t0 = Samples.now () in
      let r = f () in
      let us = Samples.us_since t0 in
      staged := !staged +. us;
      (r, us)
  in
  let stage pick f =
    let r, us = clock f in
    Option.iter (fun t -> Samples.push (pick t) us) tm;
    r
  in
  let missed = ref [] and hit = ref [] in
  let start = Samples.now () in
  let serve i { id; text } =
    staged := 0.;
    let text, wire_in = clock (fun () -> wire_request decoder ~id text) in
    let sampled = Scheduler.session_sampled sampling id in
    let obs = if sampled then Obs.create ~session:id () else Obs.null in
    let session = ref None in
    let outcome =
      Obs.with_span obs ~phase:"daemon" "daemon.request" (fun root ->
          match
            stage
              (fun t -> t.elaborate)
              (fun () -> Trust_lang.Elaborate.from_string ~obs ~parent:root ~file:"<wire>" text)
          with
          | Error _ -> parse_error
          | Ok spec ->
            let defectors = Workloads.defectors_for ~every:setting.defect_every id spec in
            let s = Session.make ~id ~defectors spec in
            let (), us = clock (fun () -> Scheduler.process_one ~obs ~parent:root cfg cache s) in
            Option.iter
              (fun t ->
                Samples.push (if s.Session.cache_hit then t.session_hit else t.session_miss) us)
              tm;
            session := Some s;
            outcome_of_session s)
    in
    (match !session with
    | None -> ()
    | Some s ->
      if s.Session.cache_hit then hit := i :: !hit
      else if not (lint_refused s) then missed := i :: !missed;
      stage
        (fun t -> t.keep)
        (fun () ->
          match Scheduler.keep_decision ~sampled s with
          | None -> ()
          | Some keep ->
            let trace =
              if sampled then obs
              else begin
                (* tail promotion: re-run the closed session with a live sink *)
                let replay = Obs.create ~session:id () in
                let t0 = Samples.now () in
                ignore (Scheduler.replay cfg cache replay s : Session.t);
                Option.iter (fun t -> Samples.push t.tail_replay (Samples.us_since t0)) tm;
                replay
              end
            in
            Obs.attr trace (Obs.first_root trace) "keep" (Obs.Str (Ring.keep_label keep));
            ignore (Ring.record ring ~keep trace : int)));
    let cache_hit = match !session with Some s -> s.Session.cache_hit | None -> false in
    let (), wire_out = clock (fun () -> wire_response decoder ~id outcome ~cache_hit) in
    Option.iter
      (fun t ->
        Samples.push t.wire (wire_in +. wire_out);
        if i >= first_timed then Samples.push t.stage_sum !staged)
      tm;
    if setting.aging && (i + 1) mod Workloads.daemon_epoch_every = 0 then
      ignore (Cache.advance_epoch ~max_idle:Workloads.daemon_max_idle cache : int);
    outcome
  in
  let outcomes = Array.mapi serve requests in
  {
    outcomes;
    cache;
    ring;
    wall_s = Samples.s_since start;
    timers = tm;
    missed = List.rev !missed;
    hit = List.rev !hit;
  }

(* -- side passes: admission, the miss path stage by stage, and the hot
   path -- *)

type miss_stages = {
  feasibility : Samples.t;
  rescue : Samples.t;
  assemble : Samples.t;
  static_exposure : Samples.t;
  compile : Samples.t;
  fresh : Samples.t;
}

(* Every [stride]-th element, so at most [cap] of [xs] are measured. *)
let thin ~cap xs =
  let n = List.length xs in
  let stride = max 1 ((n + cap - 1) / cap) in
  List.filteri (fun k _ -> k mod stride = 0) xs

let parse text =
  match Trust_lang.Elaborate.from_string ~file:"<wire>" text with
  | Ok spec -> spec
  | Error e -> failwith ("replayed spec no longer parses: " ^ e)

(* Cache.admission, called exactly where Scheduler.process_one calls it
   in [run] — every parsed, unsampled request, in stream order (sampled
   sessions lint directly instead) — but on a cache of its own, which
   holds only the admission memo: the memo fills and resets as the
   replay's does, and the replay itself pays for admission once. *)
let admission_side setting requests =
  let sampling = { setting.cfg with Scheduler.sample_rate = Workloads.daemon_sample } in
  let cache = Cache.create Cache.default_policy in
  let admission = Samples.create () in
  Array.iter
    (fun { id; text } ->
      match Trust_lang.Elaborate.from_string ~file:"<wire>" text with
      | Ok spec when not (Scheduler.session_sampled sampling id) ->
        ignore (Samples.time admission (fun () -> Cache.admission cache spec))
      | Ok _ | Error _ -> ())
    requests;
  admission

(* Cache.fresh's stages, called in its order through their public
   entry points, then Cache.fresh itself on the same spec: the
   difference is the miss path's unattributed remainder. *)
let miss_side ~cap requests missed =
  let policy = Cache.default_policy in
  let shared = policy.Cache.shared and mode = policy.Cache.mode in
  let st =
    {
      feasibility = Samples.create ();
      rescue = Samples.create ();
      assemble = Samples.create ();
      static_exposure = Samples.create ();
      compile = Samples.create ();
      fresh = Samples.create ();
    }
  in
  List.iter
    (fun i ->
      let spec = parse requests.(i).text in
      let feasible = Samples.time st.feasibility (fun () -> Feasibility.is_feasible ~shared spec) in
      let plan =
        if feasible || not policy.Cache.rescue then None
        else
          match Samples.time st.rescue (fun () -> Feasibility.rescue_with_indemnities ~shared spec) with
          | None | Some { Feasibility.plans = []; _ } -> None
          | Some { Feasibility.plans = [ p ]; _ } -> Some p
          | Some { Feasibility.plans; _ } ->
            Some
              Trust_core.Indemnity.
                {
                  offers = List.concat_map (fun p -> p.offers) plans;
                  total = List.fold_left (fun acc p -> acc + p.total) 0 plans;
                }
      in
      (match Samples.time st.assemble (fun () -> Harness.assemble ~mode ~shared ?plan spec) with
      | Error _ -> ()
      | Ok cast ->
        let split = cast.Harness.spec in
        ignore
          (Samples.time st.static_exposure (fun () -> Trust_analyze.Static_exposure.analyze split));
        if Party.Map.is_empty split.Spec.overrides then
          ignore
            (Samples.time st.compile (fun () ->
                 Trust_core.Compile.compile ~lockstep:(mode = Harness.Lockstep) ~shared ?plan
                   ~price:(Trust_sim.Trace.price_for split) split cast.Harness.protocol)));
      ignore (Samples.time st.fresh (fun () -> Cache.fresh policy spec)))
    (thin ~cap missed);
  st

(* Hotpath.exec on the cached plans of hit requests; each distinct
   shape is synthesized once, untimed. *)
let exec_side ~cap setting requests hits =
  let cfg = setting.cfg in
  let config =
    {
      Trust_sim.Hotpath.latency = cfg.Scheduler.latency;
      deadline = cfg.Scheduler.session_deadline;
      max_events = cfg.Scheduler.max_events;
      drop = None;
    }
  in
  let exec = Samples.create () in
  let entries = Hashtbl.create 256 in
  List.iter
    (fun i ->
      let { id; text } = requests.(i) in
      let spec = parse text in
      let key = Shape.encode spec in
      let entry =
        match Hashtbl.find_opt entries key with
        | Some e -> Some e
        | None -> (
          match Cache.fresh Cache.default_policy spec with
          | Ok e ->
            Hashtbl.replace entries key e;
            Some e
          | Error _ -> None)
      in
      match Option.bind entry (fun e -> e.Cache.compiled) with
      | None -> ()
      | Some plan ->
        let defectors = Workloads.defectors_for ~every:setting.defect_every id spec in
        ignore (Samples.time exec (fun () -> Trust_sim.Hotpath.exec ~config ~defectors plan)))
    (thin ~cap hits);
  exec

(* -- the pool: the same sessions at jobs 1 and jobs 2 -- *)

type pool = {
  jobs1_s : float;  (** median wall of the jobs-1 runs *)
  jobs2_s : float;
  retries : int;
  agree : bool;  (** every run's outcomes equal the first's *)
}

(* [sessions] carry their defectors; [cfg jobs] is the adversarial
   scheduler config. A first run warms the cache; then jobs 1 and 2
   alternate, three runs each, every run on fresh session records and a
   fresh 1 MiB ring. *)
let pool_pass ~cfg sessions =
  let cache = Cache.create Cache.default_policy in
  let run jobs =
    let fresh = List.map Workloads.renew sessions in
    let ring = Ring.create ~capacity:Workloads.daemon_ring () in
    let t0 = Samples.now () in
    let stats = Scheduler.run ~ring (cfg jobs) cache fresh in
    let wall = Samples.s_since t0 in
    (wall, stats.Scheduler.retried, Stats.digest_of_list (List.map outcome_of_session fresh))
  in
  let _, retries, reference = run 1 in
  let walls = Hashtbl.create 2 and agree = ref true in
  for _ = 1 to 3 do
    List.iter
      (fun jobs ->
        let wall, _, digest = run jobs in
        if not (String.equal digest reference) then agree := false;
        Hashtbl.add walls jobs wall)
      [ 1; 2 ]
  done;
  {
    jobs1_s = Stats.median (Hashtbl.find_all walls 1);
    jobs2_s = Stats.median (Hashtbl.find_all walls 2);
    retries;
    agree = !agree;
  }

(* -- the outcome check -- *)

(* The reference outcomes alone, as fast as the host allows: elaborate
   and Scheduler.process_one per request, the stream split in two halves
   on two domains, each with its own cache. A session's outcome does not
   depend on what the cache holds (a hit equals fresh synthesis), so the
   split cannot change it. *)
let outcomes setting requests =
  let serve cache { id; text } =
    match Trust_lang.Elaborate.from_string ~file:"<wire>" text with
    | Error _ -> parse_error
    | Ok spec ->
      let defectors = Workloads.defectors_for ~every:setting.defect_every id spec in
      let s = Session.make ~id ~defectors spec in
      Scheduler.process_one setting.cfg cache s;
      outcome_of_session s
  in
  let half lo hi () =
    let cache = Cache.create Cache.default_policy in
    Array.map (serve cache) (Array.sub requests lo (hi - lo))
  in
  let n = Array.length requests in
  let second = Domain.spawn (half (n / 2) n) in
  let first = half 0 (n / 2) () in
  Array.append first (Domain.join second)

(* Traced over untraced wall time on the same requests: the two kinds of
   pass alternate, twice each, so neither gains from running second. *)
let trace_overhead setting requests =
  let wall timed = (run ~timed setting requests).wall_s in
  let untraced1 = wall false in
  let traced1 = wall true in
  let untraced2 = wall false in
  let traced2 = wall true in
  Stats.ratio (traced1 +. traced2) (untraced1 +. untraced2)
