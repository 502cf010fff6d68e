(* One run of one workload: set up, measure for --seconds, check the
   outcomes, and print every metric by name, unit and sample count. The
   last line of stdout is the JSON result.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --trustseq PATH

   --trace 0 reports the end-to-end metrics; --trace 1 repeats the
   end-to-end run and then replays the identical stream in-process with
   a clock around every layer call, reporting the per-layer metrics. *)

module Client = Trust_daemon.Client
module Cache = Trust_serve.Cache
module Ring = Trust_obs.Ring

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trustseq : string;
}

(* Set-up is repeated in every run and its median reported. *)
let setups = 9

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 --trustseq PATH";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ _ ] -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get flag = match List.assoc_opt flag kv with Some v -> v | None -> usage () in
  let int flag = match int_of_string_opt (get flag) with Some n -> n | None -> usage () in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = match float_of_string_opt (get "--seconds") with Some s when s > 0. -> s | _ -> usage () in
  { workload = get "--workload"; seed = int "--seed"; seconds; trace; trustseq = get "--trustseq" }

(* -- reporting -- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "metric %-36s %16.6f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    ms

let print_result ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

(* Failures: count and say why, on stdout above the result. *)
type tally = { mutable attempted : int; mutable failed : int }

let fail t n why =
  if n > 0 then begin
    t.failed <- t.failed + n;
    Printf.printf "FAILED %d: %s\n%!" n why
  end

(* Daemon figures are medians over blocks of this many responses: long
   enough for a block's p99 to leave 20 samples beyond it. *)
let daemon_block = 2000

(* A calibration slice after every this many daemon responses: ten in
   a block. The batch times a {!Calib.slice2} after every pass. *)
let daemon_calibrate = 200

(* The host's speed per block: the median of the [per_block] slices
   timed during it. *)
let block_slices ~per_block slices = Stats.block_quantiles ~size:per_block (Samples.to_array slices) 0.5

(* The median over blocks (or set-ups) of a per-block figure, at the
   reference speed: block [i] scaled by slice [i]. *)
let at_reference ~slices per blocks =
  Stats.median
    (Array.to_list
       (Stats.at_reference ~ref_ms:Calib.ref_ms ~window:1 ~slices per (Array.of_list blocks)))

(* A daemon set-up's slice: the median of nine timed right after it. *)
let setup_slice () = Stats.median (List.init 9 (fun _ -> Calib.slice ()))

let print_host_speed ~what slices =
  let a = Samples.sorted slices in
  Printf.printf "host speed %s: %d slices, median %.4f ms, quartiles %.4f..%.4f (reference %.4f ms)\n"
    what (Array.length a) (Stats.percentile a 0.5) (Stats.percentile a 0.25)
    (Stats.percentile a 0.75) Calib.ref_ms

(* Latency as the median over blocks of [block] consecutive samples of
   each block's quantile, at the reference speed: each sample scaled by
   the slices of its window of [window] samples ([slices] has one entry
   per window). The ten-beyond rule is checked per block; [block = None]
   makes the whole run one block. *)
let latency_metrics ~what ?block ~window ~slices samples =
  let raw = Samples.to_array samples in
  let values = Stats.at_reference ~ref_ms:Calib.ref_ms ~window ~slices Stats.Time raw in
  let block = match block with Some b -> b | None -> max 1 (Array.length values) in
  let size = min block (Array.length values) in
  let blocks = Stats.block_quantiles ~size:block values 0.5 in
  Printf.printf "latency %s: %d samples in %d blocks of %d; p99 of a block has %d beyond (the tail rule allows %s)\n"
    what (Array.length values) (List.length blocks) size (Stats.beyond size 0.99)
    (Stats.quantile_label (Stats.tail_quantile size));
  Printf.printf "latency %s as measured: p50 %.6f ms, p99 %.6f ms\n" what
    (Stats.median (Stats.block_quantiles ~size:block raw 0.5))
    (Stats.median (Stats.block_quantiles ~size:block raw 0.99));
  [
    metric ~samples:(Array.length values) "p50_ms" "ms" (Stats.median blocks);
    metric ~samples:(Array.length values) "p99_ms" "ms"
      (Stats.median (Stats.block_quantiles ~size:block values 0.99));
  ]

let compare_outcomes t ~what expected actual =
  let n = min (Array.length expected) (Array.length actual) in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    match expected.(i) with
    | Some o when o <> actual.(i) -> incr bad
    | Some _ | None -> ()
  done;
  let digest a = Stats.digest_hex (Array.fold_left Stats.fold Stats.empty_digest a) in
  let present = Array.of_list (List.filter_map Fun.id (Array.to_list expected)) in
  Printf.printf "digest %s: %s vs %s over %d outcomes\n" what (digest present)
    (digest (Array.sub actual 0 n)) n;
  fail t !bad (what ^ ": outcome mismatches")

(* -- per-layer metrics from the traced replay -- *)

let us_metric name (s : Samples.t) = metric ~samples:(Samples.count s) name "us" (Samples.mean s)
let p99_metric name (s : Samples.t) = metric ~samples:(Samples.count s) name "us" (Samples.percentile s 0.99)
let count_metric name n = metric name "count" (float_of_int n)

let layer_metrics ~e2e_mean_us ~overhead ~(traced : Layers.pass) ~timed_slice ~wire_in_e2e
    ~admission ~(miss : Layers.miss_stages) ~exec ~(adversarial : Layers.pass)
    ~(pool : Layers.pool) =
  let t = Option.get traced.Layers.timers in
  let adv = Option.get adversarial.Layers.timers in
  let stage_mean = Samples.mean t.Layers.stage_sum in
  (* the batch path never touches the wire or the parser: its stage sum
     leaves them out *)
  let stage_mean =
    if wire_in_e2e then stage_mean
    else
      stage_mean -. Samples.mean_last t.Layers.wire timed_slice
      -. Samples.mean_last t.Layers.elaborate timed_slice
  in
  let miss_stage_sum =
    (Samples.sum miss.Layers.feasibility +. Samples.sum miss.Layers.rescue
   +. Samples.sum miss.Layers.assemble +. Samples.sum miss.Layers.static_exposure
   +. Samples.sum miss.Layers.compile)
    /. float_of_int (max 1 (Samples.count miss.Layers.fresh))
  in
  let cache = traced.Layers.cache in
  [
    us_metric "daemon.wire.mean_us" t.Layers.wire;
    us_metric "lang.elaborate.mean_us" t.Layers.elaborate;
    p99_metric "lang.elaborate.p99_us" t.Layers.elaborate;
    us_metric "analyze.admission.mean_us" admission;
    us_metric "serve.session_hit.mean_us" t.Layers.session_hit;
    us_metric "serve.session_miss.mean_us" t.Layers.session_miss;
    p99_metric "serve.session_miss.p99_us" t.Layers.session_miss;
    us_metric "obs.keep.mean_us" t.Layers.keep;
    metric "serve.cache.hit_ratio" "ratio" (Cache.hit_rate cache);
    count_metric "serve.cache.aged_out" (Cache.aged_out cache);
    count_metric "serve.cache.evictions" (Cache.evictions cache);
    us_metric "core.feasibility.mean_us" miss.Layers.feasibility;
    count_metric "core.rescue.calls" (Samples.count miss.Layers.rescue);
    us_metric "core.rescue.mean_us" miss.Layers.rescue;
    us_metric "sim.assemble.mean_us" miss.Layers.assemble;
    us_metric "analyze.static_exposure.mean_us" miss.Layers.static_exposure;
    p99_metric "analyze.static_exposure.p99_us" miss.Layers.static_exposure;
    us_metric "core.compile.mean_us" miss.Layers.compile;
    metric ~samples:(Samples.count miss.Layers.fresh) "serve.cache.miss.unattributed_us" "us"
      (Samples.mean miss.Layers.fresh -. miss_stage_sum);
    us_metric "sim.exec.mean_us" exec;
    metric "serve.pool.jobs2_over_jobs1" "ratio" (Stats.ratio pool.Layers.jobs1_s pool.Layers.jobs2_s);
    count_metric "serve.retries" pool.Layers.retries;
    count_metric "obs.tail_replay.calls" (Samples.count adv.Layers.tail_replay);
    us_metric "obs.tail_replay.mean_us" adv.Layers.tail_replay;
    count_metric "obs.ring.records_written" (Ring.records_written adversarial.Layers.ring);
    count_metric "obs.ring.records_dropped" (Ring.records_dropped adversarial.Layers.ring);
    metric ~samples:(Samples.count t.Layers.stage_sum) "unattributed_share" "ratio"
      (Stats.unattributed_share ~e2e_mean:e2e_mean_us ~stages:[ stage_mean ]);
    metric "trace_overhead_ratio" "ratio" overhead;
  ]

let sessions_of_requests ~every (requests : Layers.request array) =
  Array.to_list
    (Array.map
       (fun { Layers.id; text } ->
         let spec = Layers.parse text in
         Trust_serve.Session.make ~id ~defectors:(Workloads.defectors_for ~every id spec) spec)
       requests)

(* How the untraced end-to-end mean per request is obtained: measured by
   the end-to-end run, or — for the batch, whose end-to-end run spreads
   sessions over two domains while the stage sums are serial — the
   pool pass's jobs-1 wall time per session. *)
type e2e_mean = Measured_us of float | Jobs1_per_session

(* The traced half shared by every workload: the timed replay, checked
   against [reference] (what the end-to-end run answered, request by
   request), then the side passes and the overhead of the clock reads. *)
let traced_layers t ~seed ~setting ~requests ~reference ~timed_slice ~wire_in_e2e ~e2e_mean
    ~adversarial ~pool_sessions =
  let traced =
    Layers.run ~timed:true ~first_timed:(Array.length requests - timed_slice) setting requests
  in
  compare_outcomes t ~what:"traced replay" reference traced.Layers.outcomes;
  let admission = Layers.admission_side setting requests in
  let miss = Layers.miss_side ~cap:2000 requests traced.Layers.missed in
  let exec = Layers.exec_side ~cap:4000 setting requests traced.Layers.hit in
  let adversarial = match adversarial with Some p -> p | None -> traced in
  let pool = Layers.pool_pass ~cfg:(fun jobs -> Workloads.batch_scheduler seed ~jobs) pool_sessions in
  if not pool.Layers.agree then fail t 1 "pool: jobs 1 and jobs 2 outcomes differ";
  let e2e_mean_us =
    match e2e_mean with
    | Measured_us us -> us
    | Jobs1_per_session ->
      Stats.per_item_us ~wall_s:pool.Layers.jobs1_s ~items:(List.length pool_sessions)
  in
  let overhead =
    Layers.trace_overhead setting (Array.sub requests 0 (min 4000 (Array.length requests)))
  in
  layer_metrics ~e2e_mean_us ~overhead ~traced ~timed_slice ~wire_in_e2e ~admission ~miss ~exec
    ~adversarial ~pool

(* -- the daemon workloads -- *)

let daemon_workload a t ~universe ~rate_cap =
  let count = int_of_float (a.seconds *. float_of_int rate_cap) in
  let t_gen = Samples.now () in
  let stream = Workloads.daemon_stream universe ~seed:a.seed ~count in
  Printf.printf "generated %d + %d requests in %.2fs\n%!" (Array.length stream.Workloads.prefix)
    count (Samples.s_since t_gen);
  let warmup = Array.length stream.Workloads.prefix in
  let pin = Soak.pin_self () in
  Printf.printf "client and daemon pinned to CPU %s\n"
    (match pin with Some p -> p.Soak.cpu | None -> "(none: taskset unavailable)");
  Calib.warm ();
  let finish child client ~served =
    Client.close client;
    match Soak.drain child ~expect_served:served with
    | Ok () -> ()
    | Error e -> fail t 1 ("drain: " ^ e)
  in
  (* set-up: spawn, welcome, warm-up prefix — repeated, each daemon on a
     fresh socket; the last one serves the timed phase *)
  let rec setup k times slices digests =
    let t0 = Samples.now () in
    let child = Soak.spawn ~pin ~trustseq:a.trustseq ~tag:(string_of_int k) in
    match Soak.connect child with
    | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 1
    | Ok client ->
      let warm = Soak.drive client ~first_id:0 stream.Workloads.prefix in
      let s = Samples.s_since t0 in
      let c = setup_slice () in
      t.attempted <- t.attempted + warm.Soak.sent;
      fail t warm.Soak.failed ("warm-up: " ^ Option.value warm.Soak.error ~default:"busy answers");
      let digest =
        Stats.digest_of_list (List.filter_map Fun.id (Array.to_list warm.Soak.outcomes))
      in
      if k = setups then
        (List.rev (s :: times), List.rev (c :: slices), child, client, warm, digest :: digests)
      else begin
        finish child client ~served:warm.Soak.sent;
        setup (k + 1) (s :: times) (c :: slices) (digest :: digests)
      end
  in
  let setup_times, setup_slices, child, client, warm, digests = setup 1 [] [] [] in
  if List.length (List.sort_uniq String.compare digests) > 1 then
    fail t 1 "warm-up outcomes differ between set-ups";
  let rss_kb = ref None in
  let ticks = Samples.cpu_ticks () in
  let timed =
    Soak.drive ~seconds:a.seconds ~calibrate:daemon_calibrate client ~first_id:warmup
      stream.Workloads.timed
      ~at:(Workloads.daemon_rss_after, fun () -> rss_kb := Some (Soak.peak_rss_kb child.Soak.pid))
  in
  Samples.print_steal ~what:"timed phase" ticks;
  t.attempted <- t.attempted + timed.Soak.sent;
  fail t timed.Soak.failed ("timed phase: " ^ Option.value timed.Soak.error ~default:"busy answers");
  if timed.Soak.sent > Array.length stream.Workloads.timed then
    print_endline "note: the timed phase went round the generated stream again";
  let rss_kb =
    match !rss_kb with
    | Some kb -> kb
    | None ->
      Printf.printf "note: daemon peak RSS read at the end, before %d timed requests\n"
        Workloads.daemon_rss_after;
      Soak.peak_rss_kb child.Soak.pid
  in
  finish child client ~served:(warm.Soak.sent + timed.Soak.sent);
  Soak.unpin pin;
  let responses = Samples.count timed.Soak.rtt_ms in
  Printf.printf "daemon: %d set-ups, %d warm-up + %d timed requests, %d cache hits (%.4f)\n"
    setups warmup timed.Soak.sent timed.Soak.hits
    (float_of_int timed.Soak.hits /. float_of_int (max 1 timed.Soak.sent));
  let reference = Array.append warm.Soak.outcomes timed.Soak.outcomes in
  let requests =
    Array.mapi
      (fun id text -> { Layers.id; text })
      (Array.append stream.Workloads.prefix
         (Array.init timed.Soak.sent (fun k ->
              stream.Workloads.timed.(k mod Array.length stream.Workloads.timed))))
  in
  let slices = block_slices ~per_block:(daemon_block / daemon_calibrate) timed.Soak.slice_ms in
  let rates = Stats.block_rates ~size:daemon_block (Samples.to_array timed.Soak.done_s) in
  print_host_speed ~what:"timed phase" timed.Soak.slice_ms;
  Printf.printf "as measured: setup_s %.6f s, throughput_per_s %.3f 1/s\n" (Stats.median setup_times)
    (Stats.median rates);
  let e2e =
    [
      metric ~samples:setups "setup_s" "s" (at_reference ~slices:setup_slices Stats.Time setup_times);
      metric ~samples:responses "throughput_per_s" "1/s" (at_reference ~slices Stats.Rate rates);
      metric "rss_peak_mb" "MB" (float_of_int rss_kb /. 1024.);
    ]
    @ latency_metrics ~what:"round trip" ~block:daemon_block ~window:daemon_block ~slices
        timed.Soak.rtt_ms
  in
  if not a.trace then begin
    (* the outcome check: the same stream, in-process, with the same ids *)
    compare_outcomes t ~what:"daemon vs in-process" reference
      (Layers.outcomes Layers.daemon_setting requests);
    e2e
  end
  else begin
    print_metrics e2e;
    let prefix = Array.sub requests 0 (min 1024 (Array.length requests)) in
    let adversarial = Layers.run ~timed:true (Layers.adversarial_setting a.seed) prefix in
    traced_layers t ~seed:a.seed ~setting:Layers.daemon_setting ~requests ~reference
      ~timed_slice:timed.Soak.sent ~wire_in_e2e:true
      ~e2e_mean:(Measured_us (Samples.mean timed.Soak.rtt_ms *. 1e3))
      ~adversarial:(Some adversarial)
      ~pool_sessions:(sessions_of_requests ~every:Workloads.batch_defect_every prefix)
  end

(* -- the adversarial batch -- *)

let batch_workload a t =
  let ticks = Samples.cpu_ticks () in
  let r = Batch_defect.run ~seed:a.seed ~seconds:a.seconds ~setups in
  Samples.print_steal ~what:"the run" ticks;
  let n = Array.length r.Batch_defect.reference in
  t.attempted <- t.attempted + r.Batch_defect.sessions + (n * (setups + 1));
  fail t r.Batch_defect.mismatched "batch: outcomes differ from the first cold pass";
  fail t r.Batch_defect.jobs1_mismatched "batch: jobs 1 outcomes differ from jobs 2";
  Printf.printf "batch: %d set-ups, %d calls of %d sessions, %d sessions timed, digest %s\n" setups
    r.Batch_defect.calls Workloads.batch_chunk r.Batch_defect.sessions
    (Stats.digest_hex (Array.fold_left Stats.fold Stats.empty_digest r.Batch_defect.reference));
  if r.Batch_defect.rss_early then
    Printf.printf "note: peak RSS read at the end, before %d timed calls\n" Workloads.batch_rss_after;
  (* a throughput block is one pass over the whole session list; its
     slices set the speed of its calls *)
  let pass = n / Workloads.batch_chunk in
  let slices = Array.to_list (Samples.to_array r.Batch_defect.slice_ms) in
  let rates =
    List.map
      (fun r -> float_of_int Workloads.batch_chunk *. r)
      (Stats.block_rates ~size:pass (Samples.to_array r.Batch_defect.done_s))
  in
  print_host_speed ~what:"timed phase" r.Batch_defect.slice_ms;
  Printf.printf "as measured: setup_s %.6f s, throughput_per_s %.3f 1/s\n"
    (Stats.median r.Batch_defect.setup_s) (Stats.median rates);
  let e2e =
    [
      metric ~samples:setups "setup_s" "s"
        (at_reference ~slices:r.Batch_defect.setup_slices Stats.Time r.Batch_defect.setup_s);
      metric ~samples:r.Batch_defect.sessions "throughput_per_s" "1/s"
        (at_reference ~slices Stats.Rate rates);
      metric "rss_peak_mb" "MB" (float_of_int r.Batch_defect.rss_kb /. 1024.);
    ]
    @ latency_metrics ~what:"per call" ~window:pass ~slices r.Batch_defect.latency_ms
  in
  if not a.trace then e2e
  else begin
    print_metrics e2e;
    let sessions = Workloads.batch_specs a.seed in
    let texts =
      Array.of_list
        (List.map
           (fun { Trust_serve.Session.id; spec; _ } ->
             { Layers.id; text = Trust_lang.Printer.to_string spec })
           sessions)
    in
    (* the cold pass, then one warm pass: the timed phase's regime *)
    let requests = Array.append texts texts in
    let reference = Array.map (fun { Layers.id; _ } -> Some r.Batch_defect.reference.(id)) requests in
    traced_layers t ~seed:a.seed ~setting:(Layers.adversarial_setting a.seed) ~requests ~reference
      ~timed_slice:n ~wire_in_e2e:false ~e2e_mean:Jobs1_per_session ~adversarial:None ~pool_sessions:sessions
  end

let () =
  (* a signalled run still reaps its daemon: exit runs Soak's at_exit *)
  List.iter (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  let a = parse_args () in
  let w =
    match Workloads.find a.workload with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ a.workload);
      exit 2
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" w.Workloads.name a.seed a.seconds
    (if a.trace then 1 else 0);
  let t = { attempted = 0; failed = 0 } in
  let metrics =
    match w.Workloads.kind with
    | Workloads.Daemon { universe; rate_cap } -> daemon_workload a t ~universe ~rate_cap
    | Workloads.Batch -> batch_workload a t
  in
  print_metrics metrics;
  Printf.printf "operations attempted %d failed %d; benchmark process peak RSS %d kB\n" t.attempted
    t.failed (Trust_daemon.Procstat.peak_rss_kb ());
  print_result ~correct:(t.failed = 0) ~attempted:(max 1 t.attempted) ~failed:t.failed metrics
