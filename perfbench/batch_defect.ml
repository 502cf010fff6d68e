(* The adversarial batch's end-to-end half: in-process Scheduler.run at
   jobs 2 over small batches of the session list, with injected drops, a
   silent defector every 7th session and the production ring. *)

module Cache = Trust_serve.Cache
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Ring = Trust_obs.Ring

type result = {
  setup_s : float list;  (** one per set-up: cache creation plus the cold pass *)
  setup_slices : float list;  (** per set-up, the {!Calib.slice2} timed right after it *)
  calls : int;  (** Scheduler.run calls in the timed phase *)
  sessions : int;  (** sessions run in the timed phase *)
  mismatched : int;  (** sessions of the timed phase and later set-ups whose outcome differs from the first cold pass *)
  latency_ms : Samples.t;  (** per Scheduler.run call *)
  done_s : Samples.t;
      (** completion time of each call, seconds into the timed phase, not
          counting the calibration slices *)
  slice_ms : Samples.t;  (** a {!Calib.slice2} after each pass over the session list *)
  reference : Stats.outcome array;  (** the cold pass's outcomes, by session id *)
  jobs1_mismatched : int;  (** sessions whose jobs-1 outcome differs *)
  rss_kb : int;  (** VmHWM after [Workloads.batch_rss_after] timed calls *)
  rss_early : bool;  (** the timed phase ended before that many calls *)
}

let outcomes sessions = Array.of_list (List.map Layers.outcome_of_session sessions)

let count_mismatches reference sessions =
  List.fold_left
    (fun acc (s : Session.t) ->
      if reference.(s.Session.id) = Layers.outcome_of_session s then acc else acc + 1)
    0 sessions

let run ~seed ~seconds ~setups =
  let sessions = Workloads.batch_specs seed in
  let cfg = Workloads.batch_scheduler seed ~jobs:2 in
  (* The timed phase runs pass after pass over the whole list, each pass
     cut into calls of [batch_chunk] sessions after a seeded shuffle:
     a call's latency then samples random compositions, not the same
     calls over and over. Outcomes are per-session (drops are keyed on
     the session id), so the shuffle cannot change them. Drawn before
     timing; the phase cycles through them if it outruns the draw. *)
  let passes =
    let rng = Workload.Prng.create (Int64.of_int seed) in
    Array.init Workloads.batch_passes (fun _ ->
        let order = Array.of_list (Workload.Prng.shuffle rng sessions) in
        Array.init
          (Array.length order / Workloads.batch_chunk)
          (fun k -> Array.to_list (Array.sub order (k * Workloads.batch_chunk) Workloads.batch_chunk)))
  in
  let calls_per_pass = Array.length passes.(0) in
  (* set-up, repeated: a fresh cache and ring, then the cold pass over
     the whole list; every cold pass must agree with the first. The
     first set-up serves the timed phase and the others run after it:
     their discarded caches would otherwise still be in the heap whose
     peak the timed phase reads. *)
  Calib.warm ();
  let setup () =
    let t0 = Samples.now () in
    let cache = Cache.create Cache.default_policy in
    let ring = Ring.create ~capacity:Workloads.daemon_ring () in
    let cold = List.map Workloads.renew sessions in
    ignore (Scheduler.run ~ring cfg cache cold : Scheduler.stats);
    let s = Samples.s_since t0 in
    (s, Calib.slice2 Workloads.batch_slices, cache, ring, cold)
  in
  let first_s, first_c, cache, ring, cold = setup () in
  let reference = outcomes cold in
  let latency = Samples.create () and done_s = Samples.create () and slices = Samples.create () in
  let calib_s = ref 0. in
  let mismatched = ref 0 and done_sessions = ref 0 and calls = ref 0 in
  (* the peak is read after a fixed amount of work, not at the end of
     the time budget: it grows with the calls made, so a faster program
     would otherwise read higher *)
  let rss_kb = ref None in
  let start = Samples.now () in
  let budget = Int64.of_float (seconds *. 1e9) in
  while Int64.compare (Int64.sub (Samples.now ()) start) budget < 0 do
    let pass = passes.(!calls / calls_per_pass mod Array.length passes) in
    let chunk = List.map Workloads.renew pass.(!calls mod calls_per_pass) in
    let t0 = Samples.now () in
    ignore (Scheduler.run ~ring cfg cache chunk : Scheduler.stats);
    Samples.push latency (Int64.to_float (Int64.sub (Samples.now ()) t0) /. 1e6);
    Samples.push done_s (Samples.s_since start -. !calib_s);
    mismatched := !mismatched + count_mismatches reference chunk;
    done_sessions := !done_sessions + List.length chunk;
    incr calls;
    if !calls mod calls_per_pass = 0 then begin
      let t1 = Samples.now () in
      Samples.push slices (Calib.slice2 Workloads.batch_slices);
      calib_s := !calib_s +. Samples.s_since t1
    end;
    if !calls = Workloads.batch_rss_after then
      rss_kb := Some (Trust_daemon.Procstat.peak_rss_kb ())
  done;
  let rss_early = !rss_kb = None in
  let rss_kb =
    match !rss_kb with Some kb -> kb | None -> Trust_daemon.Procstat.peak_rss_kb ()
  in
  (* the same sessions at jobs 1 on the warm cache must agree *)
  let serial = List.map Workloads.renew sessions in
  ignore
    (Scheduler.run ~ring { cfg with Scheduler.jobs = 1 } cache serial : Scheduler.stats);
  let rec again k times slices =
    if k <= 1 then (List.rev times, List.rev slices)
    else begin
      let s, c, _, _, cold = setup () in
      mismatched := !mismatched + count_mismatches reference cold;
      again (k - 1) (s :: times) (c :: slices)
    end
  in
  let setup_s, setup_slices = again setups [ first_s ] [ first_c ] in
  {
    setup_s;
    setup_slices;
    calls = !calls;
    sessions = !done_sessions;
    mismatched = !mismatched;
    latency_ms = latency;
    done_s;
    slice_ms = slices;
    reference;
    jobs1_mismatched = count_mismatches reference serial;
    rss_kb;
    rss_early;
  }
