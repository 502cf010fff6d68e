(* The benchmark's own arithmetic: percentiles and the ten-beyond rule,
   the outcome digest, and the reconciliation. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let a = ascending 100 in
  check_float "median of 1..100" 50. (Stats.percentile a 0.5);
  check_float "p99 of 1..100" 99. (Stats.percentile a 0.99);
  check_float "p100 is the max" 100. (Stats.percentile a 1.0);
  check_float "p0 is the min" 1. (Stats.percentile a 0.0);
  check_float "p99 of 1..1000" 990. (Stats.percentile (ascending 1000) 0.99);
  check_float "single sample" 7. (Stats.percentile [| 7. |] 0.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

let test_beyond () =
  check_int "p99 of 1000 leaves 10" 10 (Stats.beyond 1000 0.99);
  check_int "p99 of 999 leaves 9" 9 (Stats.beyond 999 0.99);
  check_int "p99.9 of 10000 leaves 10" 10 (Stats.beyond 10_000 0.999);
  check_int "median of 21 leaves 10" 10 (Stats.beyond 21 0.5);
  check_int "nothing beyond in an empty run" 0 (Stats.beyond 0 0.99)

let test_tail_rule () =
  let label n = Stats.quantile_label (Stats.tail_quantile n) in
  check_string "10000 samples reach p99.9" "p99.9" (label 10_000);
  check_string "9999 samples stop at p99" "p99" (label 9_999);
  check_string "1000 samples reach p99" "p99" (label 1_000);
  check_string "999 samples stop at p90" "p90" (label 999);
  check_string "100 samples reach p90" "p90" (label 100);
  check_string "a handful falls back to the median" "p50" (label 12)

let test_median () =
  check_float "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  check_float "even takes the middle pair" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |])

let test_blocks () =
  let lists = Alcotest.(check (list (float 1e-9))) in
  lists "median per block of 3, partial block dropped" [ 2.; 5. ]
    (Stats.block_quantiles ~size:3 [| 3.; 1.; 2.; 6.; 5.; 4.; 100. |] 0.5);
  lists "too few values make one block" [ 2. ] (Stats.block_quantiles ~size:10 [| 1.; 2.; 3. |] 0.5);
  lists "nothing, no blocks" [] (Stats.block_quantiles ~size:3 [||] 0.5);
  (* completions at 0.5, 1, then 3, 4: two per block *)
  lists "rates per block" [ 2.; 2. /. 3. ] (Stats.block_rates ~size:2 [| 0.5; 1.; 3.; 4. |]);
  lists "a short run is one block" [ 1. ] (Stats.block_rates ~size:5 [| 1.; 2. |]);
  (* a host at half the reference speed: slices take 2 ms for 1 *)
  let at_reference ~ref_ms ~window ~slices per values =
    Array.to_list (Stats.at_reference ~ref_ms ~window ~slices per (Array.of_list values))
  in
  lists "times at reference speed" [ 5.; 3. ]
    (at_reference ~ref_ms:1. ~window:1 ~slices:[ 2.; 1. ] Stats.Time [ 10.; 3. ]);
  lists "rates at reference speed" [ 20.; 3. ]
    (at_reference ~ref_ms:1. ~window:1 ~slices:[ 2.; 1. ] Stats.Rate [ 10.; 3. ]);
  lists "a value without a slice is dropped" [ 4. ]
    (at_reference ~ref_ms:2. ~window:1 ~slices:[ 1. ] Stats.Time [ 2.; 7. ]);
  lists "values scaled by their window, the partial window dropped" [ 5.; 6.; 3.; 4. ]
    (at_reference ~ref_ms:1. ~window:2 ~slices:[ 2.; 1. ] Stats.Time [ 10.; 12.; 3.; 4.; 99. ])

let outcome ?(status = "settled") ticks =
  {
    Stats.status;
    ticks;
    events = 2 * ticks;
    attempts = 1;
    exposure_peak = 0;
    exposure_ticks = 0;
    exposure_violations = 0;
  }

let test_digest () =
  let a = outcome 3 and b = outcome ~status:"expired" 4 in
  check_string "empty digest is the FNV-1a offset" "cbf29ce484222325" (Stats.digest_of_list []);
  check_string "line rendering" "settled 3 6 1 0 0 0" (Stats.outcome_line a);
  check_string "equal streams agree" (Stats.digest_of_list [ a; b ]) (Stats.digest_of_list [ a; b ]);
  Alcotest.(check bool) "order matters" false
    (Stats.digest_of_list [ a; b ] = Stats.digest_of_list [ b; a ]);
  Alcotest.(check bool) "every field matters" false
    (Stats.digest_of_list [ a ] = Stats.digest_of_list [ { a with Stats.exposure_violations = 1 } ]);
  Alcotest.(check bool) "fields do not run together" false
    (Stats.digest_of_list [ outcome 1; outcome 23 ] = Stats.digest_of_list [ outcome 12; outcome 3 ]);
  check_string "fold is incremental"
    (Stats.digest_of_list [ a; b ])
    (Stats.digest_hex (Stats.fold (Stats.fold Stats.empty_digest a) b))

(* An independent FNV-1a 64, checked against the published vector. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L) s;
  Printf.sprintf "%016Lx" !h

let test_fnv_vector () =
  check_string "FNV-1a 64 of \"a\"" "af63dc4c8601ec8c" (fnv1a "a");
  check_string "the digest is FNV-1a over newline-terminated lines"
    (fnv1a "settled 3 6 1 0 0 0\nexpired 4 8 1 0 0 0\n")
    (Stats.digest_of_list [ outcome 3; outcome ~status:"expired" 4 ])

let test_reconciliation () =
  check_float "stages cover 60%" 0.4 (Stats.unattributed_share ~e2e_mean:250. ~stages:[ 100.; 50. ]);
  check_float "exact cover" 0. (Stats.unattributed_share ~e2e_mean:10. ~stages:[ 4.; 6. ]);
  check_float "over-count is negative" (-0.5) (Stats.unattributed_share ~e2e_mean:10. ~stages:[ 15. ]);
  Alcotest.(check bool) "no mean, no share" true
    (Float.is_nan (Stats.unattributed_share ~e2e_mean:0. ~stages:[ 1. ]));
  check_float "per item" 250. (Stats.per_item_us ~wall_s:0.5 ~items:2000);
  Alcotest.(check bool) "no items, no mean" true
    (Float.is_nan (Stats.per_item_us ~wall_s:1. ~items:0));
  (* 1000 sessions whose serial stages sum to 300 us each: a jobs-1 wall
     of 0.4 s leaves a quarter unattributed, while a jobs-2 wall of
     0.2 s would read as a negative share — the pool's speed-up, not
     time the stages miss *)
  check_float "batch against its jobs-1 wall" 0.25
    (Stats.unattributed_share ~e2e_mean:(Stats.per_item_us ~wall_s:0.4 ~items:1000) ~stages:[ 300. ]);
  check_float "a jobs-2 wall would over-count" (-0.5)
    (Stats.unattributed_share ~e2e_mean:(Stats.per_item_us ~wall_s:0.2 ~items:1000) ~stages:[ 300. ]);
  check_float "ratio" 1.5 (Stats.ratio 3. 2.);
  Alcotest.(check bool) "ratio by zero" true (Float.is_nan (Stats.ratio 1. 0.))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "ten-beyond tail rule" `Quick test_tail_rule;
          Alcotest.test_case "median and mean" `Quick test_median;
          Alcotest.test_case "blocks" `Quick test_blocks;
        ] );
      ( "digest",
        [
          Alcotest.test_case "outcome fold" `Quick test_digest;
          Alcotest.test_case "FNV-1a vector" `Quick test_fnv_vector;
        ] );
      ("reconciliation", [ Alcotest.test_case "unattributed share" `Quick test_reconciliation ]);
    ]
