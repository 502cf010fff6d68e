(* The protocol cache's contract: a cache hit is indistinguishable from
   fresh synthesis, the canonical shape hash is stable across runs, and
   distinct specs never share an encoding. *)

open Exchange
module Shape = Trust_serve.Shape
module Cache = Trust_serve.Cache
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let outcome_label = function `Hit -> "hit" | `Miss -> "miss"

let test_hash_stable () =
  check_string "same spec, same hash"
    (Shape.hash_hex (Gen.chain ~brokers:3))
    (Shape.hash_hex (Gen.chain ~brokers:3));
  check_string "same spec, same encoding"
    (Shape.encode (Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ]))
    (Shape.encode (Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ]));
  (* Pinned: the canonical encoding is part of the cache's persistence
     contract. If this changes, every cached protocol is invalidated —
     change it deliberately, not by accident. *)
  check_string "pinned chain-1 hash" "c1dc6ceae41f53d2" (Shape.hash_hex (Gen.chain ~brokers:1))

(* A deadline follows the right side's asset in a deal's key; money
   ends in bare digits, so without a separator a 23-cent right side
   within 5 and a 2-cent one within 35 both read [m235] and the cache
   would serve one spec's plan for the other. *)
let test_deadline_keys () =
  let swap ~cents ~within =
    Spec.make_exn
      [
        Spec.with_deadline within
          (Spec.deal ~id:"x" ~left:(Party.consumer "c") ~right:(Party.producer "p")
             ~via:(Party.trusted "t") ~left_sends:(Asset.document "d")
             ~right_sends:(Asset.money cents));
      ]
  in
  let a = swap ~cents:23 ~within:5 and b = swap ~cents:2 ~within:35 in
  check "distinct keys" false (String.equal (Shape.encode a) (Shape.encode b));
  check "distinct hashes" false (Int64.equal (Shape.hash a) (Shape.hash b));
  check "same deadline, same key" true
    (String.equal (Shape.encode a) (Shape.encode (swap ~cents:23 ~within:5)));
  (* deadline-free keys keep their bytes *)
  check_string "pinned chain-1 key"
    "deals[(5:link1B2:b1P1:pT2:t1m1000d1:d-)(5:link0C1:cB2:b1T2:t0m1100d1:d-)]personas[]prios[(B2:b15:link0R)]splits[]ovr[]"
    (Shape.encode (Gen.chain ~brokers:1))

(* specs/scale/chain50.exg is the committed rendering of the 51-link
   chain the daemon smoke step submits; it must stay the generator's
   shape. *)
let test_chain50_fixture () =
  match Trust_lang.Elaborate.from_file "../specs/scale/chain50.exg" with
  | Error e -> Alcotest.failf "chain50.exg: %s" e
  | Ok spec ->
    check_string "chain50.exg is Gen.chain ~brokers:50"
      (Shape.encode (Gen.chain ~brokers:50))
      (Shape.encode spec)

(* specs/scale/fan128.exg is the committed rendering of the 128-document
   fan the daemon smoke step submits next to chain50. *)
let test_fan128_fixture () =
  match Trust_lang.Elaborate.from_file "../specs/scale/fan128.exg" with
  | Error e -> Alcotest.failf "fan128.exg: %s" e
  | Ok spec ->
    check_string "fan128.exg is Gen.fan over 128 prices"
      (Shape.encode (Gen.fan ~prices:(List.init 128 (fun i -> 100 + i))))
      (Shape.encode spec)

let test_hash_collisions () =
  let rng = Prng.create 99L in
  let specs =
    List.init 16 (fun n -> Gen.chain ~brokers:n)
    @ List.init 8 (fun k -> Gen.fan ~prices:(List.init (k + 1) (fun i -> Asset.dollars (10 * (i + 1)))))
    @ List.init 8 (fun k -> Gen.bundle ~docs:(k + 1))
  in
  let random = Gen.random_transactions rng Gen.default_mix 100 in
  let distinct_encodings = Hashtbl.create 64 and distinct_hashes = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      Hashtbl.replace distinct_encodings (Shape.encode spec) ();
      Hashtbl.replace distinct_hashes (Shape.hash spec) ())
    (specs @ random);
  (* the fixed generators are pairwise structurally distinct *)
  let fixed_encodings = Hashtbl.create 64 in
  List.iter (fun spec -> Hashtbl.replace fixed_encodings (Shape.encode spec) ()) specs;
  check_int "fixed generators never collide" (List.length specs) (Hashtbl.length fixed_encodings);
  (* and hashing never merges distinct encodings in this population *)
  check_int "hash is collision-free here" (Hashtbl.length distinct_encodings)
    (Hashtbl.length distinct_hashes)

let test_hit_after_miss () =
  let cache = Cache.create Cache.default_policy in
  let spec = Gen.chain ~brokers:2 in
  let _, first = Cache.synthesize cache spec in
  let _, second = Cache.synthesize cache spec in
  check_string "first is a miss" "miss" (outcome_label first);
  check_string "second is a hit" "hit" (outcome_label second);
  check_int "one resident entry" 1 (Cache.size cache);
  check "hit rate 1/2" true (Cache.hit_rate cache = 0.5)

let test_hit_equals_fresh () =
  (* verify-mode re-synthesizes on every hit and raises on divergence;
     exercise it across the three workload families, including a fan
     that needs the indemnity rescue. *)
  let cache = Cache.create { Cache.default_policy with Cache.verify = true } in
  let specs =
    [
      Gen.chain ~brokers:1;
      Gen.chain ~brokers:3;
      Gen.bundle ~docs:3;
      Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20; Asset.dollars 30 ];
    ]
  in
  List.iter
    (fun spec ->
      (match Cache.synthesize cache spec with
      | Ok _, `Miss -> ()
      | Ok _, o -> Alcotest.failf "expected miss, got %s" (outcome_label o)
      | Error e, _ -> Alcotest.failf "synthesis failed: %s" e);
      match Cache.synthesize cache spec with
      | Ok entry, `Hit -> (
        match Cache.fresh (Cache.policy cache) spec with
        | Ok fresh -> check "hit equals fresh" true (Cache.entry_equal entry fresh)
        | Error e -> Alcotest.failf "fresh synthesis failed: %s" e)
      | _, o -> Alcotest.failf "expected verified hit, got %s" (outcome_label o))
    specs

let test_rescued_fan_carries_plan () =
  let cache = Cache.create Cache.default_policy in
  let spec = Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20; Asset.dollars 30 ] in
  match Cache.synthesize cache spec with
  | Ok entry, `Miss -> (
    match entry.Cache.plan with
    | Some plan ->
      check_int "fig7 greedy rescue total" (Asset.dollars 70) plan.Trust_core.Indemnity.total
    | None -> Alcotest.fail "rescued fan must carry its indemnity plan")
  | _ -> Alcotest.fail "expected a fresh rescued synthesis"

(* test_reduce's shared bundle: two documents through one agent,
   feasible only by the shared-agent rule. *)
let shared_bundle () =
  let c = Party.consumer "c" and t = Party.trusted "t" in
  Spec.make_exn
    [
      Spec.sale ~id:"a" ~buyer:c ~seller:(Party.producer "p1") ~via:t
        ~price:(Asset.dollars 10) ~good:"d1";
      Spec.sale ~id:"b" ~buyer:c ~seller:(Party.producer "p2") ~via:t
        ~price:(Asset.dollars 20) ~good:"d2";
    ]

(* Oracle: [Cache.fresh] (one analysis, rescue continued from it) must
   produce what the three-pass composition built from the public stage
   entry points produces — feasibility check, rescue from scratch,
   merged plan, [Harness.assemble] (which re-analyzes) and compilation
   — on every field of the entry. *)
let composed_fresh (policy : Cache.policy) spec =
  let module Feasibility = Trust_core.Feasibility in
  let module Harness = Trust_sim.Harness in
  let shared = policy.Cache.shared and mode = policy.Cache.mode in
  let plan =
    if (not policy.Cache.rescue) || Feasibility.is_feasible ~shared spec then None
    else
      match Feasibility.rescue_with_indemnities ~shared spec with
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
  match Harness.assemble ~mode ~shared ?plan spec with
  | Error e -> Error e
  | Ok cast ->
    let split_spec = cast.Harness.spec and protocol = cast.Harness.protocol in
    let compiled =
      Trust_core.Compile.compile ~lockstep:(mode = Harness.Lockstep) ~shared ?plan
        ~price:(Trust_sim.Trace.price_for split_spec) split_spec protocol
    in
    Ok { Cache.split_spec; plan; protocol; compiled = Some compiled }

(* The compiled plans' arrays, with the spec and plan they carry
   compared by encoding and offers instead (the spec memoizes its
   shape lazily, so it is not compared structurally). *)
let same_compiled a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Trust_core.Compile.t), Some (b : Trust_core.Compile.t) ->
    String.equal (Shape.encode a.spec) (Shape.encode b.spec)
    && a.plan = b.plan
    && { a with spec = b.spec; plan = b.plan } = b
  | (None | Some _), _ -> false

(* The oracle corpus: 200 random transactions, the paper's scenarios,
   two bundles through one agent and the shared bundle. *)
let corpus () =
  let two_bundles =
    match Trust_lang.Elaborate.from_file "../specs/two_bundles.exg" with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "two_bundles.exg: %s" e
  in
  Gen.random_transactions (Prng.create 2026L) Gen.default_mix 200
  @ List.map snd Workload.Scenarios.all
  @ [ two_bundles; shared_bundle () ]

(* all eight: shared x rescue x mode *)
let policies =
  List.concat_map
    (fun shared ->
      List.concat_map
        (fun rescue ->
          List.map
            (fun mode -> { Cache.default_policy with Cache.shared; rescue; mode })
            [ Trust_sim.Harness.Lockstep; Trust_sim.Harness.Distributed ])
        [ false; true ])
    [ false; true ]

(* [Cache.fresh] of every corpus input under every policy, computed
   once for the two oracles below. *)
let fresh_corpus =
  lazy
    (let inputs = corpus () in
     List.map (fun policy -> (policy, List.map (fun spec -> (spec, Cache.fresh policy spec)) inputs))
       policies)

let test_fresh_matches_composition () =
  let rescued = ref 0 in
  List.iter
    (fun (policy, entries) ->
      List.iteri
        (fun n (spec, fresh) ->
          match (fresh, composed_fresh policy spec) with
          | Ok fresh, Ok composed ->
            if fresh.Cache.plan <> None then incr rescued;
            if
              not
                (Cache.entry_equal fresh composed
                && same_compiled fresh.Cache.compiled composed.Cache.compiled)
            then Alcotest.failf "input %d: fresh differs from the composition" n
          | Error a, Error b -> check_string (Printf.sprintf "input %d: same error" n) b a
          | Ok _, Error e -> Alcotest.failf "input %d: only the composition failed: %s" n e
          | Error e, Ok _ -> Alcotest.failf "input %d: only fresh failed: %s" n e)
        entries)
    (Lazy.force fresh_corpus);
  check "the corpus exercises the rescue path" true (!rescued > 0)

(* Oracle: [Compile.compile], which interns to ints and tables each
   party's sides in one pass, builds the plan the reference compiler
   (test/ref_compile.ml, the rescanning one it replaced) builds. On the
   corpus under every policy the reference prices through the
   rescanning [Ref_spec.price_for]; on chains, fans and bundles at
   widths 16 and 256 (default policy), where that would cost seconds,
   through the indexed [Spec.price_for] that test_spec checks. *)
let test_compile_matches_reference () =
  let compared = ref 0 in
  let against_reference ~price policy what (entry : Cache.entry) =
    let split = entry.Cache.split_spec in
    let reference =
      Ref_compile.compile
        ~lockstep:(policy.Cache.mode = Trust_sim.Harness.Lockstep)
        ~shared:policy.Cache.shared ?plan:entry.Cache.plan ~price:(price split) split
        entry.Cache.protocol
    in
    incr compared;
    if not (same_compiled entry.Cache.compiled (Some reference)) then
      Alcotest.failf "%s: the compiled plan differs from the reference" what
  in
  List.iter
    (fun (policy, entries) ->
      List.iteri
        (fun n (_, fresh) ->
          Result.iter
            (against_reference ~price:Ref_spec.price_for policy (Printf.sprintf "input %d" n))
            fresh)
        entries)
    (Lazy.force fresh_corpus);
  List.iter
    (fun n ->
      List.iter
        (fun (shape, spec) ->
          let what = Printf.sprintf "%s%d" shape n in
          match Cache.fresh Cache.default_policy spec with
          | Ok entry -> against_reference ~price:Spec.price_for Cache.default_policy what entry
          | Error e -> Alcotest.failf "%s: %s" what e)
        [ ("chain", Gen.chain ~brokers:n);
          ("fan", Gen.fan ~prices:(List.init n (fun i -> Asset.dollars (i + 1))));
          ("bundle", Gen.bundle ~docs:n) ])
    [ 16; 256 ];
  (* every policy finds most of the corpus feasible *)
  check "plans compared" true (!compared > 4 * 200)

let test_negative_caching () =
  let cache = Cache.create { Cache.default_policy with Cache.rescue = false } in
  let spec = Gen.fan ~prices:[ Asset.dollars 10; Asset.dollars 20 ] in
  (match Cache.synthesize cache spec with
  | Error _, `Miss -> ()
  | _ -> Alcotest.fail "bare fan must fail synthesis without rescue");
  match Cache.synthesize cache spec with
  | Error _, `Hit -> ()
  | _ -> Alcotest.fail "the infeasible verdict must be cached too"

(* An override spec is cached and compiled like any other; its
   override descriptions are part of the shape, so the same deals under
   another override never hit its entry. *)
let test_override_cached () =
  let chain = Gen.chain ~brokers:1 and c = Party.consumer "c" in
  let accepting = Spec.with_override c State.always_acceptable chain in
  let veto = Spec.with_override c State.{ descriptions = []; preferred = describes [] } chain in
  let cache = Cache.create Cache.default_policy in
  let compiled label = function
    | Ok entry, outcome ->
      check (label ^ ": compiled") true (entry.Cache.compiled <> None);
      outcome_label outcome
    | Error e, _ -> Alcotest.failf "%s: %s" label e
  in
  check_string "first lookup misses" "miss" (compiled "first" (Cache.synthesize cache accepting));
  check_string "second lookup hits" "hit" (compiled "second" (Cache.synthesize cache accepting));
  check "another override is another shape" false
    (String.equal (Shape.encode accepting) (Shape.encode veto));
  check "an override is not the bare spec's shape" false
    (String.equal (Shape.encode accepting) (Shape.encode chain));
  check_string "another override misses" "miss" (compiled "veto" (Cache.synthesize cache veto));
  check_int "both resident" 2 (Cache.size cache)

let test_eviction () =
  (* one shard = the unsharded FIFO semantics, pinned exactly *)
  let cache = Cache.create ~capacity:2 ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 and s3 = Gen.chain ~brokers:3 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.synthesize cache s2);
  ignore (Cache.synthesize cache s3);
  check_int "capacity respected" 2 (Cache.size cache);
  check_int "one eviction" 1 (Cache.evictions cache);
  (* s1 was the oldest insertion, so it is the one that went *)
  let _, outcome = Cache.synthesize cache s1 in
  check_string "evicted entry misses" "miss" (outcome_label outcome)

let test_aging_sweeps_idle () =
  let cache = Cache.create ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.synthesize cache s2);
  check_int "epoch starts at zero" 0 (Cache.epoch cache);
  (* both entries last used in epoch 0; one tick with max_idle 1 sweeps them *)
  let swept = Cache.advance_epoch ~max_idle:1 cache in
  check_int "both swept" 2 swept;
  check_int "aged_out counts the sweep" 2 (Cache.aged_out cache);
  check_int "nothing resident" 0 (Cache.size cache);
  check_int "epoch advanced" 1 (Cache.epoch cache);
  let _, outcome = Cache.synthesize cache s1 in
  check_string "swept entry misses" "miss" (outcome_label outcome)

let test_aging_touch_survives () =
  let cache = Cache.create ~shards:1 Cache.default_policy in
  let hot = Gen.chain ~brokers:1 and cold = Gen.chain ~brokers:2 in
  ignore (Cache.synthesize cache hot);
  ignore (Cache.synthesize cache cold);
  (* first tick with the default idle window: nothing is old enough *)
  check_int "young entries survive" 0 (Cache.advance_epoch ~max_idle:2 cache);
  check_int "both resident" 2 (Cache.size cache);
  (* touch only the hot entry, then tick again: the cold one is now
     two epochs idle and goes; the hot one was refreshed *)
  (match Cache.synthesize cache hot with
  | _, `Hit -> ()
  | _ -> Alcotest.fail "expected the hot entry to hit");
  check_int "only the cold entry swept" 1 (Cache.advance_epoch ~max_idle:2 cache);
  check_int "hot entry resident" 1 (Cache.size cache);
  (match Cache.synthesize cache hot with
  | _, `Hit -> ()
  | _ -> Alcotest.fail "the survivor must still hit");
  let _, outcome = Cache.synthesize cache cold in
  check_string "the swept entry misses" "miss" (outcome_label outcome)

let test_aging_and_eviction_compose () =
  (* a sweep compacts the FIFO order queue; refills after it must keep
     the oldest-live-insertion eviction order, not trip over residue *)
  let cache = Cache.create ~capacity:2 ~shards:1 Cache.default_policy in
  let s1 = Gen.chain ~brokers:1 and s2 = Gen.chain ~brokers:2 and s3 = Gen.chain ~brokers:3 in
  ignore (Cache.synthesize cache s1);
  ignore (Cache.advance_epoch ~max_idle:1 cache);
  check_int "aged down to empty" 0 (Cache.size cache);
  ignore (Cache.synthesize cache s2);
  ignore (Cache.synthesize cache s3);
  check_int "refilled to capacity" 2 (Cache.size cache);
  ignore (Cache.synthesize cache s1);
  check_int "capacity still respected" 2 (Cache.size cache);
  check_int "one true eviction" 1 (Cache.evictions cache);
  (* s2 was the oldest live insertion; it is the one evicted *)
  let _, outcome = Cache.synthesize cache s3 in
  check_string "newer entry survived the eviction" "hit" (outcome_label outcome)

let test_aging_rejects_bad_window () =
  let cache = Cache.create Cache.default_policy in
  match Cache.advance_epoch ~max_idle:0 cache with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_idle 0 must be rejected"

let test_sharded_counts_aggregate () =
  (* Distinct shapes land on (mostly) distinct shards; the aggregate
     hit/miss/size counters must still read like one cache. *)
  let cache = Cache.create Cache.default_policy in
  check "default shard fan-out" true (Cache.shard_count cache > 1);
  let specs = List.init 12 (fun n -> Gen.chain ~brokers:n) in
  List.iter (fun s -> ignore (Cache.synthesize cache s)) specs;
  List.iter (fun s -> ignore (Cache.synthesize cache s)) specs;
  check_int "one miss per distinct shape" 12 (Cache.misses cache);
  check_int "one hit per repeat" 12 (Cache.hits cache);
  check_int "all resident" 12 (Cache.size cache);
  check "hit rate 1/2" true (Cache.hit_rate cache = 0.5)

let test_sharded_concurrent_same_tallies () =
  (* Hammer one cache from several domains with the same interleaved
     shape stream: per shape, exactly one lookup is the miss and the
     rest are hits, whatever the arrival order — so the aggregate
     tallies equal the sequential ones. *)
  let specs = List.init 6 (fun n -> Gen.chain ~brokers:n) in
  let cache = Cache.create Cache.default_policy in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.iter (fun s -> ignore (Cache.synthesize cache s)) specs))
  in
  Array.iter Domain.join domains;
  check_int "one miss per distinct shape" 6 (Cache.misses cache);
  check_int "hits for every other lookup" (4 * 6 - 6) (Cache.hits cache);
  check_int "six resident" 6 (Cache.size cache)

let prop_cached_equals_fresh =
  QCheck2.Test.make ~name:"cached synthesis equals fresh synthesis" ~count:60 QCheck2.Gen.int
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let specs = Gen.random_transactions rng Gen.default_mix 6 in
      let cache = Cache.create { Cache.default_policy with Cache.verify = true } in
      List.for_all
        (fun spec ->
          ignore (Cache.synthesize cache spec);
          (* the hit re-synthesizes under verify and raises on divergence *)
          match Cache.synthesize cache spec with
          | verdict, `Hit -> (
            match (verdict, Cache.fresh (Cache.policy cache) spec) with
            | Ok cached, Ok fresh -> Cache.entry_equal cached fresh
            | Error a, Error b -> String.equal a b
            | _ -> false)
          | _, `Miss -> false)
        specs)

let prop_hash_deterministic =
  QCheck2.Test.make ~name:"shape hash is a pure function of the spec" ~count:100 QCheck2.Gen.int
    (fun seed ->
      let spec_of () =
        Gen.random_transaction (Prng.create (Int64.of_int seed)) Gen.default_mix
      in
      Shape.hash (spec_of ()) = Shape.hash (spec_of ())
      && String.equal (Shape.encode (spec_of ())) (Shape.encode (spec_of ())))

let () =
  Alcotest.run "serve_cache"
    [
      ( "shape",
        [
          Alcotest.test_case "hash stability" `Quick test_hash_stable;
          Alcotest.test_case "collision sanity" `Quick test_hash_collisions;
          Alcotest.test_case "deadline keys" `Quick test_deadline_keys;
          Alcotest.test_case "chain50 fixture is the generator's shape" `Quick
            test_chain50_fixture;
          Alcotest.test_case "fan128 fixture is the generator's shape" `Quick
            test_fan128_fixture;
          Alcotest.test_case "override cached" `Quick test_override_cached;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "hit equals fresh" `Quick test_hit_equals_fresh;
          Alcotest.test_case "rescued fan carries plan" `Quick test_rescued_fan_carries_plan;
          Alcotest.test_case "negative caching" `Quick test_negative_caching;
          Alcotest.test_case "fresh matches the staged composition" `Quick
            test_fresh_matches_composition;
          Alcotest.test_case "compile matches the reference compiler" `Quick
            test_compile_matches_reference;
          Alcotest.test_case "eviction" `Quick test_eviction;
          Alcotest.test_case "aging sweeps idle entries" `Quick test_aging_sweeps_idle;
          Alcotest.test_case "touched entries survive aging" `Quick test_aging_touch_survives;
          Alcotest.test_case "aging composes with eviction" `Quick test_aging_and_eviction_compose;
          Alcotest.test_case "aging rejects a zero window" `Quick test_aging_rejects_bad_window;
          Alcotest.test_case "sharded counters aggregate" `Quick test_sharded_counts_aggregate;
          Alcotest.test_case "concurrent lookups, sequential tallies" `Quick
            test_sharded_concurrent_same_tallies;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cached_equals_fresh;
          QCheck_alcotest.to_alcotest prop_hash_deterministic;
        ] );
    ]
