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
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
        ] );
      ("tail rules", [ Alcotest.test_case "keep rules" `Quick test_tail_reason_rules ]);
      ( "service",
        [
          Alcotest.test_case "sampled subset" `Quick test_service_sampled_subset;
          Alcotest.test_case "jobs identity" `Quick test_service_jobs_identity;
          Alcotest.test_case "tail-keep oracle (rate 0)" `Quick test_tail_keep_oracle;
          Alcotest.test_case "tail-keep oracle (rate 0.01)" `Quick test_tail_keep_oracle_sampled;
          Alcotest.test_case "zero-rate hot path" `Quick test_zero_rate_allocates_nothing;
          Alcotest.test_case "one shard, four writers" `Quick test_shared_shard_commits;
        ] );
    ]
