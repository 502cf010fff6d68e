(* Production tracing: the deterministic sampler, the binary ring
   codec and its wraparound discipline, the tail-based keep rules, and
   the service-level properties the contract promises — decoded ring
   exports are byte-compatible with the in-memory exporters, sampled
   sets are monotone in the rate and identical at any --jobs, and every
   anomalous session from a defect battery is retained at any rate. *)

module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring
module Sampler = Trust_obs.Sampler
module B64 = Trust_obs.B64
module Service = Trust_serve.Service
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Cache = Trust_serve.Cache
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let n = String.length hay and k = String.length needle in
  let rec at i = i + k <= n && (String.sub hay i k = needle || at (i + 1)) in
  at 0
let all_formats = [ Obs.Jsonl; Obs.Chrome; Obs.Tree; Obs.Folded ]

let decode_exn dump =
  match Ring.decode dump with
  | Ok r -> r
  | Error e -> Alcotest.fail ("ring decode failed: " ^ e)

(* -- sampler: reproducible, monotone in the rate, edge rates exact -- *)

let sampled_set ~seed ~rate n =
  List.filter (Sampler.decision ~seed ~rate) (List.init n Fun.id)

let test_sampler_edges () =
  let ids = List.init 1000 Fun.id in
  check_int "rate 1.0 samples everything" 1000
    (List.length (sampled_set ~seed:42L ~rate:1.0 1000));
  check_int "rate 0.0 samples nothing" 0
    (List.length (sampled_set ~seed:42L ~rate:0.0 1000));
  check_int "rates above 1.0 clamp to everything" 1000
    (List.length (sampled_set ~seed:42L ~rate:2.0 1000));
  check_int "negative rates clamp to nothing" 0
    (List.length (sampled_set ~seed:42L ~rate:(-0.5) 1000));
  List.iter
    (fun id ->
      check "decision is a pure function" true
        (Sampler.decision ~seed:7L ~rate:0.3 id = Sampler.decision ~seed:7L ~rate:0.3 id);
      check "hash is a pure function" true
        (Int64.equal (Sampler.hash ~seed:7L id) (Sampler.hash ~seed:7L id)))
    ids

let test_sampler_monotone_subset () =
  let rates = [ 0.001; 0.01; 0.1; 0.5; 1.0 ] in
  let sets = List.map (fun r -> (r, sampled_set ~seed:42L ~rate:r 2000)) rates in
  let rec pairs = function
    | (r1, s1) :: ((r2, s2) :: _ as rest) ->
      check
        (Printf.sprintf "rate %g set is a subset of rate %g" r1 r2)
        true
        (List.for_all (fun id -> List.mem id s2) s1);
      pairs rest
    | _ -> ()
  in
  pairs sets;
  (* the rate steers the sampled fraction (the hash is uniform enough) *)
  let frac r = float_of_int (List.length (sampled_set ~seed:42L ~rate:r 2000)) /. 2000. in
  check "10% rate lands near 10%" true (abs_float (frac 0.1 -. 0.1) < 0.05);
  check "50% rate lands near 50%" true (abs_float (frac 0.5 -. 0.5) < 0.05)

let test_sampler_seed_sensitivity () =
  check "different seeds sample different sets" true
    (sampled_set ~seed:1L ~rate:0.5 2000 <> sampled_set ~seed:2L ~rate:0.5 2000)

(* -- base64 transport -- *)

let test_b64 () =
  List.iter
    (fun (raw, enc) ->
      check_string ("encode " ^ String.escaped raw) enc (B64.encode raw);
      match B64.decode enc with
      | Ok back -> check_string ("decode " ^ enc) raw back
      | Error e -> Alcotest.fail e)
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v"); ("foob", "Zm9vYg==") ];
  let rng = Prng.create 3L in
  for len = 0 to 64 do
    let raw = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    match B64.decode (B64.encode raw) with
    | Ok back -> check_string "binary round trip" raw back
    | Error e -> Alcotest.fail e
  done;
  List.iter
    (fun bad ->
      check ("reject " ^ String.escaped bad) true
        (match B64.decode bad with Error _ -> true | Ok _ -> false))
    [ "A"; "AB"; "ABC"; "A*=="; "===="; "Zg==Zg=="; "Z=g=" ]

(* -- the binary codec round-trips every value kind and shape -- *)

let adversarial_trace () =
  let obs = Obs.create ~session:12345 () in
  Obs.with_span obs ~phase:"p; q" "name with space" (fun root ->
      Obs.attr obs root "neg" (Obs.Int (-987654321));
      Obs.attr obs root "big" (Obs.Int max_int);
      Obs.attr obs root "min" (Obs.Int min_int);
      Obs.attr obs root "half" (Obs.Float 0.5);
      Obs.attr obs root "negf" (Obs.Float (-1.25));
      Obs.attr obs root "tiny" (Obs.Float 1e-300);
      Obs.attr obs root "yes" (Obs.Bool true);
      Obs.attr obs root "no" (Obs.Bool false);
      Obs.attr obs root "quote" (Obs.Str "a\"b\\c\nd");
      Obs.attr obs root "empty" (Obs.Str "");
      Obs.with_span obs ~parent:root ~phase:"inner" "child" (fun child ->
          Obs.event obs child ~attrs:[ ("n", Obs.Int 3); ("s", Obs.Str "e;v") ] "tick";
          Obs.event obs child "bare");
      (* a volatile attr must not survive into the ring either *)
      Obs.volatile_attr obs root "racy" (Obs.Bool true));
  obs

let test_codec_adversarial_round_trip () =
  let obs = adversarial_trace () in
  let ring = Ring.create ~capacity:65536 () in
  check_int "nothing evicted" 0 (Ring.record ring ~keep:Ring.Sampled obs);
  let sessions, stats = decode_exn (Ring.dump ring) in
  check_int "one session" 1 stats.Ring.d_sessions;
  check_int "no drops" 0 stats.Ring.d_dropped;
  List.iter
    (fun fmt ->
      check_string "decoded export byte-compatible" (Obs.export fmt [ obs ])
        (Ring.export fmt sessions))
    all_formats;
  let jsonl = Ring.export Obs.Jsonl sessions in
  check "volatile attr quarantined in the ring too" false
    (let n = String.length jsonl in
     let rec at i = i + 4 <= n && (String.sub jsonl i 4 = "racy" || at (i + 1)) in
     at 0)

(* the load-bearing property: 100 seeded random specs through the real
   session lifecycle, committed to the ring, decoded, re-exported —
   byte-compatible with exporting the original in-memory traces in
   every format *)
let traced_batch n =
  let rng = Prng.create 5L in
  let specs = Gen.random_transactions rng Gen.default_mix n in
  let cache = Cache.create Cache.default_policy in
  List.mapi
    (fun i spec ->
      let obs = Obs.create ~session:i () in
      Scheduler.process_one ~obs Scheduler.default_config cache (Session.make ~id:i spec);
      obs)
    specs

let test_codec_property_100_specs () =
  let traces = traced_batch 100 in
  let ring = Ring.create ~capacity:(1 lsl 22) () in
  List.iter (fun obs -> ignore (Ring.record ring ~keep:Ring.Sampled obs : int)) traces;
  let sessions, stats = decode_exn (Ring.dump ring) in
  check_int "all sessions decoded" 100 stats.Ring.d_sessions;
  check_int "no drops" 0 stats.Ring.d_dropped;
  check_int "written matches the introspection counter" stats.Ring.d_written
    (Ring.records_written ring);
  List.iter
    (fun fmt ->
      check_string "100-spec export byte-compatible" (Obs.export fmt traces)
        (Ring.export fmt sessions))
    all_formats

let test_keep_reason_survives_decode () =
  List.iter
    (fun keep ->
      let ring = Ring.create ~capacity:4096 () in
      let obs = Obs.create ~session:1 () in
      Obs.with_span obs ~phase:"p" "s" (fun _ -> ());
      ignore (Ring.record ring ~keep obs : int);
      match decode_exn (Ring.dump ring) with
      | [ s ], _ ->
        check_string "keep reason round-trips" (Ring.keep_label keep)
          (Ring.keep_label s.Ring.s_keep)
      | _ -> Alcotest.fail "expected exactly one session")
    [ Ring.Sampled; Ring.Violation; Ring.Retry; Ring.Expiry; Ring.Lint ]

(* -- wraparound: whole-record eviction, newest complete suffix -- *)

let small_trace i =
  let obs = Obs.create ~session:i () in
  Obs.with_span obs ~phase:"p" (Printf.sprintf "s%d" i) (fun root ->
      Obs.attr obs root "i" (Obs.Int i);
      Obs.event obs root "tick");
  obs

let test_wraparound_newest_suffix () =
  let ring = Ring.create ~capacity:2048 () in
  let total = 200 in
  for i = 0 to total - 1 do
    ignore (Ring.record ring ~keep:Ring.Sampled (small_trace i) : int)
  done;
  check "old records evicted" true (Ring.records_dropped ring > 0);
  let sessions, stats = decode_exn (Ring.dump ring) in
  check_int "written counts every commit" (total * 4) stats.Ring.d_written;
  check "some sessions survive" true (stats.Ring.d_sessions > 0);
  check "not all sessions survive" true (stats.Ring.d_sessions < total);
  (* the survivors are exactly the newest ids, contiguous to the end —
     eviction is strictly oldest-first and sessions commit whole *)
  let ids = List.map (fun s -> s.Ring.s_id) sessions in
  let expected =
    List.init (List.length ids) (fun k -> total - List.length ids + k)
  in
  check "newest complete suffix" true (ids = expected);
  (* and each survivor decodes to its intact, byte-compatible trace *)
  List.iter
    (fun s ->
      check_string "survivor intact" (Obs.export Obs.Jsonl [ small_trace s.Ring.s_id ])
        (Ring.export Obs.Jsonl [ s ]))
    sessions

(* A string that wraps past the buffer end is written in two pieces and
   must read back whole. Padding sessions of every length up to the
   capacity put the long attribute's first byte at every offset, so
   many of them straddle the end. (1024 bytes is the smallest ring.) *)
let test_long_string_straddles_end () =
  let cap = 1024 in
  let long = String.init 600 (fun i -> Char.chr (32 + (i mod 95))) in
  let trace () =
    let obs = Obs.create ~session:2 () in
    Obs.with_span obs ~phase:"p" "long" (fun root -> Obs.attr obs root "s" (Obs.Str long));
    obs
  in
  for pad = 0 to cap - 1 do
    let ring = Ring.create ~capacity:cap () in
    let filler = Obs.create ~session:1 () in
    Obs.with_span filler ~phase:"p" "pad" (fun root ->
        Obs.attr filler root "x" (Obs.Str (String.make pad 'x')));
    ignore (Ring.record ring ~keep:Ring.Sampled filler : int);
    ignore (Ring.record ring ~keep:Ring.Sampled (trace ()) : int);
    let sessions, _ = decode_exn (Ring.dump ring) in
    match List.filter (fun s -> s.Ring.s_id = 2) sessions with
    | [ s ] ->
      check_string
        (Printf.sprintf "pad %d: decodes identically" pad)
        (Obs.export Obs.Jsonl [ trace () ])
        (Ring.export Obs.Jsonl [ s ])
    | _ -> Alcotest.failf "pad %d: the long session is missing" pad
  done

let test_oversized_session_refused_whole () =
  let ring = Ring.create ~capacity:1024 () in
  let big = Obs.create ~session:9 () in
  Obs.with_span big ~phase:"p" "root" (fun root ->
      for i = 0 to 199 do
        Obs.with_span big ~parent:root ~phase:"fill" (Printf.sprintf "pad%d" i) (fun h ->
            Obs.attr big h "filler" (Obs.Str (String.make 32 'x')))
      done);
  let dropped = Ring.record ring ~keep:Ring.Sampled big in
  check "every refused record counted" true (dropped > 0);
  check_int "refusal is atomic: nothing resident" 0 (Ring.bytes_resident ring);
  let sessions, stats = decode_exn (Ring.dump ring) in
  check_int "no torn session decoded" 0 stats.Ring.d_sessions;
  check_int "no session records" 0 (List.length sessions);
  (* the ring is still usable after a refusal *)
  ignore (Ring.record ring ~keep:Ring.Sampled (small_trace 1) : int);
  let sessions, _ = decode_exn (Ring.dump ring) in
  check_int "next session lands fine" 1 (List.length sessions)

let test_drain_semantics () =
  let ring = Ring.create ~capacity:8192 () in
  ignore (Ring.record ring ~keep:Ring.Sampled (small_trace 0) : int);
  let first, _ = decode_exn (Ring.drain ring) in
  check_int "first drain sees session 0" 1 (List.length first);
  ignore (Ring.record ring ~keep:Ring.Retry (small_trace 1) : int);
  let second, stats = decode_exn (Ring.drain ring) in
  check_int "second drain sees only session 1" 1 (List.length second);
  check_int "it is session 1" 1 (List.nth second 0).Ring.s_id;
  check_int "lifetime written counter survives drains" 8 stats.Ring.d_written;
  let third, _ = decode_exn (Ring.drain ring) in
  check_int "an idle drain is empty" 0 (List.length third);
  let none, stats = decode_exn Ring.empty_dump in
  check_int "empty dump decodes clean" 0 (List.length none);
  check_int "empty dump has no shards" 0 stats.Ring.d_shards

(* Bounded drains: each dump stays within its budget and carries whole
   sessions only, and draining until an answer is empty decodes what
   one unbounded dump of the same (wrapped) ring does. A budget below
   one session drops the sessions, counted, rather than stall. *)
let wrapped_ring () =
  let ring = Ring.create ~capacity:2048 () in
  for i = 0 to 199 do
    ignore (Ring.record ring ~keep:Ring.Sampled (small_trace i) : int)
  done;
  ring

(* [Ring.collect] over bounded drains of [ring], checking that every
   dump keeps within [budget]; the decode and the number of dumps. *)
let collect_bounded ring budget =
  let answers = ref 0 in
  let next () =
    let dump = Ring.drain ~max_bytes:budget ring in
    check (Printf.sprintf "budget %d: dump fits" budget) true (String.length dump <= budget);
    incr answers;
    Ok dump
  in
  match Ring.collect next with
  | Ok decode -> (decode, !answers)
  | Error e -> Alcotest.fail ("ring decode failed: " ^ e)

let test_bounded_drain () =
  List.iter
    (fun budget ->
      let ring = wrapped_ring () in
      let expected, expected_stats = decode_exn (Ring.dump ring) in
      let (sessions, stats), answers = collect_bounded ring budget in
      check (Printf.sprintf "budget %d: more than one answer" budget) true (answers > 2);
      check_string
        (Printf.sprintf "budget %d: same sessions" budget)
        (Ring.export Obs.Jsonl expected) (Ring.export Obs.Jsonl sessions);
      check (Printf.sprintf "budget %d: same stats" budget) true (expected_stats = stats);
      check_int (Printf.sprintf "budget %d: drained" budget) 0 (Ring.bytes_resident ring))
    [ 128; 200; 333; 1000 ];
  let ring = wrapped_ring () in
  let sessions, stats = decode_exn (Ring.drain ~max_bytes:48 ring) in
  check_int "a budget below one session carries none" 0 (List.length sessions);
  check_int "and drops every live record" stats.Ring.d_written stats.Ring.d_dropped;
  check_int "leaving nothing behind" 0 (Ring.bytes_resident ring)

(* After a wrap the oldest live records can be the tail of a session
   whose begin was evicted. When that tail and the next whole session
   do not fit one answer together, the first answer carries the tail
   alone: it decodes to no session, and draining must go on past it. *)
let test_bounded_drain_fragment () =
  let wide i spans =
    let obs = Obs.create ~session:i () in
    Obs.with_span obs ~phase:"p" (Printf.sprintf "w%d" i) (fun root ->
        for k = 1 to spans do
          Obs.with_span obs ~parent:root ~phase:"p" (Printf.sprintf "c%d" k) (fun c ->
              Obs.event obs c "tick")
        done);
    obs
  in
  let size spans =
    let r = Ring.create ~capacity:65536 () in
    ignore (Ring.record r ~keep:Ring.Sampled (wide 0 spans) : int);
    Ring.bytes_resident r
  in
  let cap = 4096 in
  let ring = Ring.create ~capacity:cap () in
  ignore (Ring.record ring ~keep:Ring.Sampled (wide 0 120) : int);
  ignore (Ring.record ring ~keep:Ring.Sampled (wide 1 60) : int);
  check "the first session is more than half the ring" true (size 120 > cap / 2);
  check "the second one evicted part of the first" true (Ring.records_dropped ring > 0);
  let expected, expected_stats = decode_exn (Ring.dump ring) in
  check "the dump holds the second session and the first's tail" true
    (List.map (fun s -> s.Ring.s_id) expected = [ 1 ] && expected_stats.Ring.d_skipped = 1);
  let whole = size 60 in
  let tail = Ring.bytes_resident ring - whole in
  (* room for either one past a dump's own header (at most 35 bytes
     for one shard), not for both *)
  let budget = max tail whole + 64 in
  check "tail and session do not fit one answer" true (min tail whole > 64);
  let (sessions, stats), answers = collect_bounded ring budget in
  check_int "two answers carry records" 3 answers;
  check_string "same sessions" (Ring.export Obs.Jsonl expected) (Ring.export Obs.Jsonl sessions);
  check "same stats" true (expected_stats = stats);
  check_int "drained" 0 (Ring.bytes_resident ring)

let test_decode_rejects_garbage () =
  List.iter
    (fun bad ->
      check ("reject " ^ String.escaped bad) true
        (match Ring.decode bad with Error _ -> true | Ok _ -> false))
    [
      "";
      "TSR";
      "XXXX\x00";
      "TSR1";
      "TSR1\x01";
      (let d = Ring.dump (Ring.create ~capacity:1024 ()) in
       String.sub d 0 (String.length d - 1));
    ]

(* -- tail keep rules on the session record -- *)

let fresh_session id = Session.make ~id Workload.Scenarios.example1

let test_tail_reason_rules () =
  let s = fresh_session 0 in
  s.Session.status <- Session.Settled;
  check "clean settle is dropped" true (Scheduler.tail_reason s = None);
  let s = fresh_session 1 in
  s.Session.status <- Session.Expired;
  check "expiry kept" true (Scheduler.tail_reason s = Some Ring.Expiry);
  let s = fresh_session 2 in
  s.Session.status <- Session.Settled;
  s.Session.attempts <- 2;
  check "retry kept" true (Scheduler.tail_reason s = Some Ring.Retry);
  let s = fresh_session 3 in
  s.Session.status <- Session.Settled;
  s.Session.exposure_violations <- 1;
  check "violation kept" true (Scheduler.tail_reason s = Some Ring.Violation);
  let s = fresh_session 4 in
  s.Session.status <- Session.Aborted "lint: [W1] suspicious" ;
  check "lint refusal kept" true (Scheduler.tail_reason s = Some Ring.Lint);
  let s = fresh_session 5 in
  s.Session.status <- Session.Aborted "infeasible" ;
  check "ordinary abort dropped" true (Scheduler.tail_reason s = None);
  (* severity order: a violation outranks a retry outranks an expiry *)
  let s = fresh_session 6 in
  s.Session.status <- Session.Expired;
  s.Session.attempts <- 3;
  s.Session.exposure_violations <- 2;
  check "violation outranks everything" true (Scheduler.tail_reason s = Some Ring.Violation);
  let s = fresh_session 7 in
  s.Session.status <- Session.Expired;
  s.Session.attempts <- 3;
  check "retry outranks expiry" true (Scheduler.tail_reason s = Some Ring.Retry);
  check "head sampling outranks tail reasons" true
    (Scheduler.keep_decision ~sampled:true s = Some Ring.Sampled)

(* -- service level: the ring rides the batch scheduler -- *)

let batch ?(sessions = 60) ?(jobs = 1) ?(drop = 0.05) ?defect ~rate ~ring () =
  Service.run
    {
      Service.default with
      Service.sessions;
      seed = 19L;
      concurrency = 4;
      jobs;
      drop_rate = drop;
      defect_every = defect;
      sample_rate = rate;
      trace_ring = ring;
    }

let ring_of outcome =
  match outcome.Service.ring with
  | Some ring -> ring
  | None -> Alcotest.fail "expected a ring sink"

let decoded outcome = decode_exn (Ring.dump (ring_of outcome))

let sampled_ids outcome =
  List.filter_map
    (fun s -> if s.Ring.s_keep = Ring.Sampled then Some s.Ring.s_id else None)
    (fst (decoded outcome))

let test_service_sampled_subset () =
  let all = sampled_ids (batch ~rate:1.0 ~ring:(1 lsl 22) ()) in
  check_int "rate 1.0 samples the whole batch" 60 (List.length all);
  let some = sampled_ids (batch ~rate:0.3 ~ring:(1 lsl 22) ()) in
  check "rate 0.3 samples a strict subset" true
    (List.length some > 0 && List.length some < 60);
  check "the subset property holds" true (List.for_all (fun id -> List.mem id all) some)

let test_service_jobs_identity () =
  let a = batch ~jobs:1 ~rate:0.3 ~ring:(1 lsl 22) () in
  let b = batch ~jobs:4 ~rate:0.3 ~ring:(1 lsl 22) () in
  let export o =
    let sessions, stats = decoded o in
    check_int "identity run must not wrap" 0 stats.Ring.d_dropped;
    Ring.export Obs.Jsonl sessions
  in
  check_string "decoded ring byte-identical at jobs 1 vs 4" (export a) (export b)

(* A 64 KiB ring wraps, and at jobs 4 which sessions share a shard —
   so how many records it drops — depends on domain scheduling. The
   drop count is a volatile gauge, so the stdout snapshot stays
   byte-identical run to run and, worker-count lines aside, across
   jobs. *)
let test_wrapping_ring_snapshot () =
  let run jobs =
    Service.run
      {
        Service.default with
        Service.sessions = 300;
        seed = 42L;
        jobs;
        mix = { Gen.default_mix with Gen.trust_density = 0.5 };
        drop_rate = 0.05;
        defect_every = Some 3;
        sample_rate = 1.0;
        trace_ring = 65536;
      }
  in
  let snapshot o =
    Format.asprintf "%a" Service.report o
    |> String.split_on_char '\n'
    |> List.filter (fun line ->
           not (contains line "worker domain" || contains line "serve_pool_workers"))
    |> String.concat "\n"
  in
  let a = run 4 in
  check "the ring wrapped" true (Ring.records_dropped (ring_of a) > 0);
  check "the drop count is on the volatile channel" true
    (contains (Trust_serve.Metrics.volatile_text a.Service.metrics)
       "obs_ring_records_dropped_total");
  let expected = snapshot a in
  check_string "jobs 4, twice" expected (snapshot (run 4));
  check_string "jobs 1 = jobs 4" expected (snapshot (run 1))

(* the oracle: at sample rate 0 every anomalous session from a defect
   battery — and nothing else — is in the ring, with the right reason *)
let test_tail_keep_oracle () =
  let outcome = batch ~sessions:80 ~drop:0.08 ~defect:8 ~rate:0.0 ~ring:(1 lsl 22) () in
  let expected =
    List.filter_map
      (fun (s : Session.t) ->
        Option.map (fun k -> (s.Session.id, Ring.keep_label k)) (Scheduler.tail_reason s))
      outcome.Service.sessions
  in
  check "the battery produced anomalies" true (List.length expected > 0);
  let sessions, _ = decoded outcome in
  let got = List.map (fun s -> (s.Ring.s_id, Ring.keep_label s.Ring.s_keep)) sessions in
  List.iter
    (fun (id, label) ->
      check (Printf.sprintf "session %d kept as %s" id label) true (List.mem (id, label) got))
    expected;
  check_int "and nothing else was kept" (List.length expected) (List.length got);
  (* the replayed traces are the real thing: spans for every kept id *)
  let jsonl = Ring.export Obs.Jsonl sessions in
  check "replayed traces carry spans" true (String.length jsonl > 0)

(* the same oracle at a daemon-like 1% rate: head samples may join, but
   every anomaly is still there *)
let test_tail_keep_oracle_sampled () =
  let outcome = batch ~sessions:80 ~drop:0.08 ~defect:8 ~rate:0.01 ~ring:(1 lsl 22) () in
  let expected =
    List.filter_map
      (fun (s : Session.t) ->
        Option.map (fun k -> (s.Session.id, Ring.keep_label k)) (Scheduler.tail_reason s))
      outcome.Service.sessions
  in
  let sessions, _ = decoded outcome in
  let got_ids = List.map (fun s -> s.Ring.s_id) sessions in
  List.iter
    (fun (id, label) ->
      check (Printf.sprintf "session %d (%s) retained at 1%%" id label) true
        (List.mem id got_ids))
    expected

(* -- the hot path stays allocation-free when nothing is sampled -- *)

let test_zero_rate_allocates_nothing () =
  let cache = Cache.create Cache.default_policy in
  let cfg = { Scheduler.default_config with Scheduler.sample_rate = 0.0 } in
  let ring = Ring.create ~capacity:65536 () in
  let spec = Workload.Gen.chain ~brokers:2 in
  let batch first n = List.init n (fun i -> Session.make ~id:(first + i) spec) in
  (* warm: synthesis, plan compilation, the works *)
  ignore (Scheduler.run ~ring cfg cache (batch 0 3) : Scheduler.stats);
  let rounds = 200 in
  let before = Gc.minor_words () in
  ignore (Scheduler.run ~ring cfg cache (batch 3 rounds) : Scheduler.stats);
  let with_ring = (Gc.minor_words () -. before) /. float_of_int rounds in
  let before = Gc.minor_words () in
  ignore (Scheduler.run cfg cache (batch (3 + rounds) rounds) : Scheduler.stats);
  let without = (Gc.minor_words () -. before) /. float_of_int rounds in
  check_int "zero-rate ring commits no records" 0 (Ring.records_written ring);
  (* the sampler verdict and the keep decision ride along per session;
     neither may allocate trace records — a small constant bound *)
  check
    (Printf.sprintf "zero-rate tracing adds ~nothing (%.0f vs %.0f words/session)"
       with_ring without)
    true
    (with_ring -. without < 64.)

(* -- a ring with fewer shards than writer domains --

   Four pool domains share one shard: every session commit must still
   land whole (the shard lock serializes them), so the dump decodes
   cleanly and counts exactly the kept sessions. Repeated, because an
   unsynchronized commit only tears under an unlucky interleaving. *)

let test_shared_shard_commits () =
  let config =
    { Service.default with Service.sessions = 120; seed = 23L; drop_rate = 0.05; defect_every = Some 7 }
  in
  let cfg =
    { Scheduler.default_config with Scheduler.jobs = 4; sample_rate = 1.0; drop_rate = 0.05; seed = 23L }
  in
  for round = 1 to 8 do
    let ring = Ring.create ~shards:1 ~capacity:(1 lsl 24) () in
    let sessions = Service.sessions_of_config config in
    ignore (Scheduler.run ~ring cfg (Cache.create Cache.default_policy) sessions : Scheduler.stats);
    let kept =
      List.length
        (List.filter
           (fun (s : Session.t) ->
             let sampled = Scheduler.session_sampled cfg s.Session.id in
             Scheduler.keep_decision ~sampled s <> None)
           sessions)
    in
    let ctx = Printf.sprintf "round %d" round in
    check_int (ctx ^ ": every session is kept at rate 1.0") 120 kept;
    check_int (ctx ^ ": sessions_recorded counts every kept session") kept
      (Ring.sessions_recorded ring);
    let decoded, stats = decode_exn (Ring.dump ring) in
    check_int (ctx ^ ": no record was dropped") 0 stats.Ring.d_dropped;
    check_int (ctx ^ ": every kept session decodes") kept (List.length decoded)
  done

(* -- the single-pass encoder against the per-byte reference writer --

   [Ref_ring] is the writer the ring had before it encoded sessions in
   one pass: every comparison commits the same traces to both, in the
   same order, and wants the same dump bytes, the same lifetime
   counters and the same evictions per commit. *)

let keeps = [| Ring.Sampled; Ring.Violation; Ring.Retry; Ring.Expiry; Ring.Lint |]

let commit_both ring reference ?(keep = Ring.Sampled) obs =
  let evicted = Ring.record ring ~keep obs in
  check_int "evictions per commit" (Ref_ring.record reference ~keep obs) evicted

let same_ring ctx ring reference =
  check_string (ctx ^ ": dump bytes") (Ref_ring.dump reference) (Ring.dump ring);
  check_int (ctx ^ ": written") (Ref_ring.records_written reference) (Ring.records_written ring);
  check_int (ctx ^ ": dropped") (Ref_ring.records_dropped reference) (Ring.records_dropped ring);
  check_int (ctx ^ ": sessions") (Ref_ring.sessions_recorded reference)
    (Ring.sessions_recorded ring);
  check_int (ctx ^ ": resident") (Ref_ring.bytes_resident reference) (Ring.bytes_resident ring)

(* Walk a one-shard dump's records: (payload size, tag, the payload's
   first varint — the session id of a begin record). *)
let dump_records dump =
  let pos = ref 0 in
  let byte () =
    let b = Char.code dump.[!pos] in
    incr pos;
    b
  in
  let varint () =
    let rec go shift acc =
      let b = byte () in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  pos := 4;
  if varint () <> 1 then Alcotest.fail "expected a one-shard dump";
  ignore (varint () : int);
  ignore (varint () : int);
  let stop = varint () + !pos in
  let records = ref [] in
  while !pos < stop do
    let psize = varint () in
    let next = !pos + psize in
    let tag = byte () in
    let first = varint () in
    records := (psize, tag, first) :: !records;
    pos := next
  done;
  List.rev !records

let test_encoder_corpus () =
  let traces = traced_batch 100 in
  List.iter
    (fun capacity ->
      let ring = Ring.create ~capacity () and reference = Ref_ring.create ~capacity () in
      List.iteri
        (fun i obs ->
          commit_both ring reference ~keep:keeps.(i mod Array.length keeps) obs;
          (* a drain midway: later dumps start past a consumed region *)
          if i = 49 then check_string "drain bytes" (Ref_ring.drain reference) (Ring.drain ring))
        traces;
      same_ring (Printf.sprintf "100 specs, %d-byte ring" capacity) ring reference)
    [ 1 lsl 22; 1 lsl 16; 8192; 1024 ]

let test_encoder_wraparound () =
  let ring = Ring.create ~capacity:2048 () and reference = Ref_ring.create ~capacity:2048 () in
  for i = 0 to 199 do
    commit_both ring reference (small_trace i);
    same_ring (Printf.sprintf "wraparound commit %d" i) ring reference
  done

let test_encoder_straddle () =
  let cap = 1024 in
  let long = String.init 600 (fun i -> Char.chr (32 + (i mod 95))) in
  for pad = 0 to cap - 1 do
    let ring = Ring.create ~capacity:cap () and reference = Ref_ring.create ~capacity:cap () in
    let filler = Obs.create ~session:1 () in
    Obs.with_span filler ~phase:"p" "pad" (fun root ->
        Obs.attr filler root "x" (Obs.Str (String.make pad 'x')));
    commit_both ring reference filler;
    let obs = Obs.create ~session:2 () in
    Obs.with_span obs ~phase:"p" "long" (fun root -> Obs.attr obs root "s" (Obs.Str long));
    commit_both ring reference obs;
    same_ring (Printf.sprintf "straddle pad %d" pad) ring reference
  done

(* span records of every payload size around the one-, two- and
   three-byte length prefixes: 127/128 and 16383/16384 bytes *)
let test_encoder_prefix_widths () =
  let sizes = ref [] in
  List.iter
    (fun lengths ->
      let ring = Ring.create ~capacity:(1 lsl 22) ()
      and reference = Ref_ring.create ~capacity:(1 lsl 22) () in
      List.iter
        (fun len ->
          for k = 0 to 2 do
            let obs = Obs.create ~session:len () in
            Obs.with_span obs ~phase:"p" "s" (fun root ->
                Obs.attr obs root "s" (Obs.Str (String.make len 'a'));
                Obs.attr obs root "t" (Obs.Str (String.make k 'b')));
            commit_both ring reference obs
          done)
        lengths;
      same_ring "prefix widths" ring reference;
      List.iter
        (fun (psize, tag, _) -> if tag = 2 then sizes := psize :: !sizes)
        (dump_records (Ring.dump ring)))
    [ List.init 60 (fun i -> 90 + i); List.init 60 (fun i -> 16_340 + i) ];
  List.iter
    (fun size ->
      check (Printf.sprintf "a %d-byte payload was written" size) true (List.mem size !sizes))
    [ 127; 128; 16_383; 16_384 ]

let test_encoder_oversized () =
  let ring = Ring.create ~capacity:1024 () and reference = Ref_ring.create ~capacity:1024 () in
  commit_both ring reference (small_trace 0);
  let big = Obs.create ~session:9 () in
  Obs.with_span big ~phase:"p" "root" (fun root ->
      for i = 0 to 199 do
        Obs.with_span big ~parent:root ~phase:"fill" (Printf.sprintf "pad%d" i) (fun h ->
            Obs.attr big h "filler" (Obs.Str (String.make 32 'x')))
      done);
  commit_both ring reference big;
  same_ring "oversized session refused whole" ring reference;
  commit_both ring reference (small_trace 1);
  same_ring "the next session lands" ring reference;
  (* A session a thousand times the shard: encoding stops once it
     passes the shard size (a full encode allocates over 1 MiB of
     scratch), and the commit leaves no grown scratch behind. *)
  let huge = Obs.create ~session:10 () in
  Obs.with_span huge ~phase:"p" "root" (fun root ->
      for i = 0 to 63 do
        Obs.with_span huge ~parent:root ~phase:"fill" (Printf.sprintf "big%d" i) (fun h ->
            Obs.attr huge h "filler" (Obs.Str (String.make 16_384 'y')))
      done);
  let before = Gc.allocated_bytes () in
  let evicted = Ring.record ring ~keep:Ring.Sampled huge in
  let allocated = Gc.allocated_bytes () -. before in
  check_int "huge session: evictions" (Ref_ring.record reference ~keep:Ring.Sampled huge) evicted;
  same_ring "huge session refused whole" ring reference;
  check (Printf.sprintf "huge session: %.0f bytes allocated, under 128 KiB" allocated) true
    (allocated < 131_072.);
  check_int "huge session: scratch back to 4096 bytes" 4096 (Ring.scratch_bytes ());
  (* a session that fits but grows the scratch past a shard size that
     is no power of two: given back after the commit too *)
  let cap = 100_000 in
  let ring = Ring.create ~capacity:cap () and reference = Ref_ring.create ~capacity:cap () in
  let wide = Obs.create ~session:11 () in
  Obs.with_span wide ~phase:"p" "root" (fun root ->
      for i = 0 to 4 do
        Obs.with_span wide ~parent:root ~phase:"fill" (Printf.sprintf "wide%d" i) (fun h ->
            Obs.attr wide h "filler" (Obs.Str (String.make 18_000 'z')))
      done);
  commit_both ring reference wide;
  same_ring "near-shard session lands" ring reference;
  check_int "near-shard session lands whole" 1 (Ring.sessions_recorded ring);
  check_int "near-shard session: scratch back to 4096 bytes" 4096 (Ring.scratch_bytes ())

(* Four domains commit into one shard; the lock decides the order. The
   begin records give that order, and the reference writer, fed the
   same sessions in it, must produce the same dump. *)
let test_encoder_four_writers () =
  let traces = Array.of_list (traced_batch 100) in
  for round = 1 to 4 do
    let ring = Ring.create ~shards:1 ~capacity:(1 lsl 24) () in
    let writers =
      List.init 4 (fun w ->
          Domain.spawn (fun () ->
              for i = 0 to 24 do
                ignore (Ring.record ring ~keep:Ring.Sampled traces.((4 * i) + w) : int)
              done))
    in
    List.iter Domain.join writers;
    let reference = Ref_ring.create ~capacity:(1 lsl 24) () in
    List.iter
      (fun (_, tag, session) ->
        if tag = 1 then ignore (Ref_ring.record reference ~keep:Ring.Sampled traces.(session) : int))
      (dump_records (Ring.dump ring));
    same_ring (Printf.sprintf "four writers, round %d" round) ring reference
  done

(* -- tail promotion rebuilds the trace head sampling records --

   A drop + defect battery, plus lint refusals and override specs,
   through [Scheduler.run] with a ring at sample rate 0 and 1.0, on
   the compiled runtime and on the interpreted one: every tail-kept
   session's spans equal the head-sampled session's, keep attr aside,
   and what [Scheduler.replay] records for it. *)

let oracle_battery () =
  let config =
    { Service.default with Service.sessions = 90; seed = 31L; defect_every = Some 5 }
  in
  let refused =
    match Trust_lang.Elaborate.from_file "../specs/lint/tl013_double_spend.exg" with
    | Ok spec -> spec
    | Error _ -> Alcotest.fail "cannot load tl013_double_spend.exg"
  in
  let override =
    Exchange.Spec.with_override (Exchange.Party.consumer "c") Exchange.State.always_acceptable
      (Gen.chain ~brokers:1)
  in
  Service.sessions_of_config config
  @ List.init 10 (fun k ->
        let id = 90 + k in
        let spec = if k mod 2 = 0 then refused else override in
        Session.make ~id ~defectors:(Trust_sim.Harness.injected_defectors ~every:3 id spec) spec)

let without_keep views =
  List.map
    (fun (v : Obs.span_view) ->
      if v.Obs.view_parent = None then
        { v with Obs.view_attrs = List.filter (fun (k, _) -> k <> "keep") v.Obs.view_attrs }
      else v)
    views

let test_tail_promoted_equals_sampled () =
  let kinds = ref [] in
  List.iter
    (fun ((jobs, drop_rate), compiled) ->
      let cfg rate =
        {
          Scheduler.default_config with
          Scheduler.jobs;
          sample_rate = rate;
          drop_rate;
          seed = 31L;
          compiled;
        }
      in
      let run rate =
        let sessions = oracle_battery () in
        let cache = Cache.create Cache.default_policy in
        let ring = Ring.create ~shards:jobs ~capacity:(1 lsl 24) () in
        ignore (Scheduler.run ~ring (cfg rate) cache sessions : Scheduler.stats);
        let decoded, stats = decode_exn (Ring.dump ring) in
        check_int "the oracle ring must not wrap" 0 stats.Ring.d_dropped;
        (sessions, cache, decoded)
      in
      let sessions, cache, tail = run 0.0 in
      let _, _, head = run 1.0 in
      let ctx = Printf.sprintf "jobs %d, drops %g, compiled %b" jobs drop_rate compiled in
      List.iter
        (fun (t : Ring.session) ->
          let id = t.Ring.s_id in
          let here = Printf.sprintf "%s, session %d (%s)" ctx id (Ring.keep_label t.Ring.s_keep) in
          kinds := t.Ring.s_keep :: !kinds;
          match List.find_opt (fun h -> h.Ring.s_id = id) head with
          | None -> Alcotest.failf "%s: missing at rate 1.0" here
          | Some h ->
            check (here ^ ": spans equal the head-sampled trace's") true
              (without_keep t.Ring.s_views = without_keep h.Ring.s_views);
            check_int (here ^ ": clock") h.Ring.s_clock t.Ring.s_clock;
            let session = List.find (fun s -> s.Session.id = id) sessions in
            let replayed = Obs.create ~session:id () in
            ignore (Scheduler.replay (cfg 0.0) cache replayed session : Session.t);
            check (here ^ ": spans equal Scheduler.replay's") true
              (without_keep t.Ring.s_views = Obs.views replayed))
        tail)
    (* compiled runs are rebuilt from their captures, interpreted ones
       run again from their entry *)
    (List.concat_map
       (fun compiled -> List.map (fun c -> (c, compiled)) [ (1, 0.08); (2, 0.08); (1, 0.0); (2, 0.0) ])
       [ true; false ]);
  List.iter
    (fun k ->
      check (Ring.keep_label k ^ " keeps were compared") true (List.mem k !kinds))
    [ Ring.Violation; Ring.Retry; Ring.Expiry; Ring.Lint ]

(* A head-sampled refusal's trace, pinned byte for byte with its
   clock: a deny-listed shape (no lint span), a lint refusal and a
   synthesis failure (rescue off, a bare fan), each through
   [Scheduler.process_one ~obs] alone and under a [daemon.request]
   root. *)
let test_sampled_refusals () =
  let session_line ~id ~parent ~start ~stop shape =
    Printf.sprintf
      {|{"type":"span","session":3,"id":%d,"parent":%s,"phase":"session","name":"session.3","start":%d,"stop":%d,"attrs":{"shape":"%s","status":"aborted","attempts":0,"ticks":1,"events":0,"violations":0,"exposure_ticks":0}}|}
      id parent start stop shape
  in
  let lint_line ~id ~parent ~start ~errors =
    Printf.sprintf
      {|{"type":"span","session":3,"id":%d,"parent":%d,"phase":"lint","name":"lint","start":%d,"stop":%d,"attrs":{"deep":false,"diagnostics":%d,"errors":%d,"warnings":0}}|}
      id parent start (start + 1) errors errors
  in
  let synth_line ~id ~parent ~start =
    Printf.sprintf
      {|{"type":"span","session":3,"id":%d,"parent":%d,"phase":"serve","name":"serve.synthesize","start":%d,"stop":%d,"attrs":{"verify":false}}|}
      id parent start (start + 1)
  in
  let request_line stop =
    Printf.sprintf
      {|{"type":"span","session":3,"id":0,"parent":null,"phase":"daemon","name":"daemon.request","start":0,"stop":%d,"attrs":{}}|}
      stop
  in
  let tl013 =
    match Trust_lang.Elaborate.from_file "../specs/lint/tl013_double_spend.exg" with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let cases =
    [
      ( "denied",
        Cache.default_policy,
        Gen.chain ~brokers:1,
        (* alone, then under a request root: clock, lines *)
        (2, [ session_line ~id:0 ~parent:"null" ~start:0 ~stop:1 "c1dc6ceae41f53d2" ]),
        (4, [ request_line 3; session_line ~id:1 ~parent:"0" ~start:1 ~stop:2 "c1dc6ceae41f53d2" ])
      );
      ( "lint",
        Cache.default_policy,
        tl013,
        ( 4,
          [
            session_line ~id:0 ~parent:"null" ~start:0 ~stop:3 "665be75c0631ad0d";
            lint_line ~id:1 ~parent:0 ~start:1 ~errors:1;
          ] ),
        ( 6,
          [
            request_line 5;
            session_line ~id:1 ~parent:"0" ~start:1 ~stop:4 "665be75c0631ad0d";
            lint_line ~id:2 ~parent:1 ~start:2 ~errors:1;
          ] ) );
      ( "synthesis",
        { Cache.default_policy with Cache.rescue = false },
        Gen.fan ~prices:[ Exchange.Asset.dollars 10; Exchange.Asset.dollars 20 ],
        ( 6,
          [
            session_line ~id:0 ~parent:"null" ~start:0 ~stop:5 "cd1cf5bb024a006a";
            lint_line ~id:1 ~parent:0 ~start:1 ~errors:0;
            synth_line ~id:2 ~parent:0 ~start:3;
          ] ),
        ( 8,
          [
            request_line 7;
            session_line ~id:1 ~parent:"0" ~start:1 ~stop:6 "cd1cf5bb024a006a";
            lint_line ~id:2 ~parent:1 ~start:2 ~errors:0;
            synth_line ~id:3 ~parent:1 ~start:4;
          ] ) );
    ]
  in
  List.iter
    (fun (label, policy, spec, alone, under_request) ->
      let traced ~parented =
        let cache = Cache.create policy in
        if label = "denied" then Cache.deny cache (Trust_serve.Shape.hash_hex spec);
        let obs = Obs.create ~session:3 () in
        let session = Session.make ~id:3 spec in
        let run ?parent () = Scheduler.process_one ~obs ?parent Scheduler.default_config cache session in
        if parented then
          Obs.with_span obs ~phase:"daemon" "daemon.request" (fun root -> run ~parent:root ())
        else run ();
        check_string (label ^ ": aborted") "aborted" (Session.status_label session.Session.status);
        (Obs.clock obs, Obs.export Obs.Jsonl [ obs ])
      in
      List.iter
        (fun (parented, (clock, lines)) ->
          let here = Printf.sprintf "%s (under a request root: %b)" label parented in
          let got_clock, got = traced ~parented in
          check_string (here ^ ": spans") (String.concat "" (List.map (fun l -> l ^ "\n") lines)) got;
          check_int (here ^ ": clock") clock got_clock)
        [ (false, alone); (true, under_request) ])
    cases

(* a tail-kept session is synthesized once: tail keeping at rate 0
   looks the cache up exactly as often as an untraced run, compiled or
   interpreted, so the batch snapshot's cache line does not move *)
let test_tail_keep_synthesizes_once () =
  let lookups ?ring compiled =
    let cache = Cache.create Cache.default_policy in
    let cfg =
      {
        Scheduler.default_config with
        Scheduler.sample_rate = 0.0;
        drop_rate = 0.08;
        seed = 31L;
        compiled;
      }
    in
    ignore (Scheduler.run ?ring cfg cache (oracle_battery ()) : Scheduler.stats);
    Cache.hits cache + Cache.misses cache
  in
  List.iter
    (fun compiled ->
      let ring = Ring.create ~capacity:(1 lsl 24) () in
      let traced = lookups ~ring compiled in
      check "sessions were tail-kept" true (Ring.sessions_recorded ring > 0);
      check_int
        (Printf.sprintf "cache lookups with tail keeping (compiled %b)" compiled)
        (lookups compiled) traced)
    [ true; false ]

let () =
  Alcotest.run "ring"
    [
      ( "sampler",
        [
          Alcotest.test_case "edge rates" `Quick test_sampler_edges;
          Alcotest.test_case "monotone subset" `Quick test_sampler_monotone_subset;
          Alcotest.test_case "seed sensitivity" `Quick test_sampler_seed_sensitivity;
        ] );
      ("transport", [ Alcotest.test_case "base64" `Quick test_b64 ]);
      ( "codec",
        [
          Alcotest.test_case "adversarial round trip" `Quick test_codec_adversarial_round_trip;
          Alcotest.test_case "100-spec property" `Quick test_codec_property_100_specs;
          Alcotest.test_case "keep reasons" `Quick test_keep_reason_survives_decode;
        ] );
      ( "wraparound",
        [
          Alcotest.test_case "newest complete suffix" `Quick test_wraparound_newest_suffix;
          Alcotest.test_case "long string straddles the end" `Quick test_long_string_straddles_end;
          Alcotest.test_case "oversized session refused" `Quick test_oversized_session_refused_whole;
          Alcotest.test_case "drain semantics" `Quick test_drain_semantics;
          Alcotest.test_case "bounded drains" `Quick test_bounded_drain;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "bounded drain past a wrapped tail" `Quick test_bounded_drain_fragment;
        ] );
      ("tail rules", [ Alcotest.test_case "keep rules" `Quick test_tail_reason_rules ]);
      ( "service",
        [
          Alcotest.test_case "sampled subset" `Quick test_service_sampled_subset;
          Alcotest.test_case "jobs identity" `Quick test_service_jobs_identity;
          Alcotest.test_case "wrapping ring, stable snapshot" `Quick test_wrapping_ring_snapshot;
          Alcotest.test_case "tail-keep oracle (rate 0)" `Quick test_tail_keep_oracle;
          Alcotest.test_case "tail-keep oracle (rate 0.01)" `Quick test_tail_keep_oracle_sampled;
          Alcotest.test_case "zero-rate hot path" `Quick test_zero_rate_allocates_nothing;
          Alcotest.test_case "one shard, four writers" `Quick test_shared_shard_commits;
          Alcotest.test_case "tail-promoted = head-sampled" `Quick test_tail_promoted_equals_sampled;
          Alcotest.test_case "tail keeps synthesize once" `Quick test_tail_keep_synthesizes_once;
          Alcotest.test_case "sampled refusals" `Quick test_sampled_refusals;
        ] );
      ( "reference writer",
        [
          Alcotest.test_case "100-spec corpus" `Quick test_encoder_corpus;
          Alcotest.test_case "wraparound sweep" `Quick test_encoder_wraparound;
          Alcotest.test_case "straddle sweep" `Quick test_encoder_straddle;
          Alcotest.test_case "length-prefix widths" `Quick test_encoder_prefix_widths;
          Alcotest.test_case "oversized session" `Quick test_encoder_oversized;
          Alcotest.test_case "one shard, four writers" `Quick test_encoder_four_writers;
        ] );
    ]
