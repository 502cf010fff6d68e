(* The static analyzer's contract, checked against the dynamic oracle:
   over a seeded corpus of generated specs, every principal's static
   worst-case interval dominates the dynamic exposure ledger's peak
   under every behavior in the test battery — honest, and every
   defectable principal defecting Silent / Partial 1 / Partial 2 in
   lockstep. Specs the analyzer certifies (no TL013–TL016) never
   produce a dynamic Bound_exceeded for an honest party. Plus worked
   examples pinning the interval arithmetic, the counterexample
   schedule format, and the conflict rules. *)

open Exchange
module Absint = Trust_analyze.Absint
module Static_exposure = Trust_analyze.Static_exposure
module Conflict = Trust_analyze.Conflict
module Diagnostic = Trust_analyze.Diagnostic
module Lint = Trust_analyze.Lint
module Feasibility = Trust_core.Feasibility
module Harness = Trust_sim.Harness
module E = Trust_sim.Exposure
module Scenarios = Workload.Scenarios
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec_of_source src =
  match Trust_lang.Elaborate.from_string src with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "fixture spec must elaborate: %s" e

let interval_for result party =
  match
    List.find_opt
      (fun (i : Absint.interval) -> Party.equal i.Absint.i_party party)
      result.Static_exposure.intervals
  with
  | Some i -> i
  | None -> Alcotest.failf "no interval for %s" (Party.name party)

(* --- worked examples ------------------------------------------------- *)

let test_example1_proved () =
  let r = Static_exposure.analyze Scenarios.example1 in
  check "verdict proved" true (r.Static_exposure.verdict = Static_exposure.Proved);
  check_int "no refuted intervals" 0 (List.length (Static_exposure.refuted r));
  check_int "no diagnostics" 0 (List.length (Static_exposure.diagnostics r));
  let b = interval_for r (Party.broker "b") in
  (* the broker's $8 purchase is its largest transfer and its peak *)
  check_int "broker bound" 800 b.Absint.i_bound;
  check_int "broker worst case" 800 b.Absint.i_hi;
  let c = interval_for r (Party.consumer "c") in
  (* the consumer pays into escrow and receives the document before its
     money is released — never at risk *)
  check_int "consumer worst case" 0 c.Absint.i_hi

let test_infeasible_vacuous () =
  let r = Static_exposure.analyze Scenarios.example2 in
  check "verdict vacuous" true (r.Static_exposure.verdict = Static_exposure.Vacuous);
  check_int "no intervals" 0 (List.length r.Static_exposure.intervals);
  check_int "no diagnostics" 0 (List.length (Static_exposure.diagnostics r))

(* Two escrowed sales to one buyer: stalling both deals after the
   document forwards stacks $16 of risk against a $10 bound. *)
let stacked_sales =
  {|principal p : producer
principal q : consumer
trusted t1
trusted t2
deal d1: q pays $10; p gives "x"; via t1
deal d2: q pays $6;  p gives "y"; via t2
split q : d2.buyer|}

let test_refutation_with_schedule () =
  let spec = spec_of_source stacked_sales in
  let r = Static_exposure.analyze spec in
  check "verdict refuted" true (r.Static_exposure.verdict = Static_exposure.Refuted);
  let p = interval_for r (Party.producer "p") in
  check_int "bound is the larger document" 1000 p.Absint.i_bound;
  check_int "honest peak stays within one deal" 1000 p.Absint.i_lo;
  check_int "stacked worst case" 1600 p.Absint.i_hi;
  (match p.Absint.i_witness.Absint.w_defector with
  | Some q -> check "the buyer is the defector" true (String.equal (Party.name q) "q")
  | None -> Alcotest.fail "refutation must name a defector");
  check "both deals are stalled" true
    (List.length p.Absint.i_witness.Absint.w_stalled = 2);
  (* the diagnostics: one TL016 for p, one TL017 with the schedule *)
  let diags = Static_exposure.diagnostics r in
  let codes = List.map (fun d -> Diagnostic.code_id d.Diagnostic.code) diags in
  Alcotest.(check (list string)) "diagnostic codes" [ "TL016"; "TL017" ] codes;
  let schedule = List.nth diags 1 in
  check "schedule notes present" true (List.length schedule.Diagnostic.notes > 1);
  check "schedule header names the defector" true
    (let h = List.hd schedule.Diagnostic.notes in
     String.length h >= 20 && String.sub h 0 20 = "schedule (defector q")

let test_witness_is_a_subsequence () =
  let spec = spec_of_source stacked_sales in
  let a =
    match (Feasibility.analyze spec).Feasibility.sequence with
    | Some seq -> Absint.of_sequence seq
    | None -> Alcotest.fail "stacked_sales must be feasible"
  in
  List.iter
    (fun (i : Absint.interval) ->
      let kept = i.Absint.i_witness.Absint.w_kept in
      (* indices strictly increase: the witness is a prefix-of-deal
         subsequence of the synthesized order, printable as a schedule *)
      let rec ascending = function
        | (a : Absint.astep) :: (b :: _ as rest) ->
          a.Absint.a_index < b.Absint.a_index && ascending rest
        | _ -> true
      in
      check (Party.name i.Absint.i_party ^ " witness ascends") true (ascending kept);
      check
        (Party.name i.Absint.i_party ^ " witness within sequence")
        true
        (List.length kept <= List.length a.Absint.steps))
    a.Absint.intervals

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

(* The bound must come from the reduction that executes: with shared
   agents on, the shared bundle is feasible only by the shared-agent
   rule, so a bound computed without that rule is vacuous. *)
let test_shared_policy_bound () =
  let spec = shared_bundle () in
  let shared = Static_exposure.analyze ~shared:true spec in
  check "bound from the shared reduction" true
    (shared = Static_exposure.of_analysis (Feasibility.analyze ~shared:true spec));
  check "shared bound not vacuous" true
    (shared.Static_exposure.verdict <> Static_exposure.Vacuous);
  check "unshared bound vacuous" true
    ((Static_exposure.analyze ~shared:false spec).Static_exposure.verdict
    = Static_exposure.Vacuous)

(* --- conflict rules --------------------------------------------------- *)

let no_loc _ = None
let no_loc2 _ _ = None

let test_double_spend_detected () =
  let spec =
    spec_of_source
      {|principal b : broker
principal c1 : consumer
principal c2 : consumer
trusted t1
trusted t2
deal s1: c1 pays $10; b gives "d"; via t1
deal s2: c2 pays $10; b gives "d"; via t2|}
  in
  match Conflict.double_spends ~deal_loc:no_loc spec with
  | [ d ] ->
    check "code is TL013" true (d.Diagnostic.code = Diagnostic.Double_spend);
    check "error severity" true (d.Diagnostic.severity = Diagnostic.Error);
    check_int "both deals in the notes" 2 (List.length d.Diagnostic.notes)
  | ds -> Alcotest.failf "expected one TL013, got %d diagnostics" (List.length ds)

let test_resale_is_not_double_spend () =
  (* example1's broker sells the document it acquires: supply 1, sales 1 *)
  check_int "example1 clean" 0
    (List.length (Conflict.double_spends ~deal_loc:no_loc Scenarios.example1));
  (* an honest two-copy reseller: acquires twice, sells twice *)
  let spec =
    spec_of_source
      {|principal b : broker
principal p1 : producer
principal p2 : producer
principal c1 : consumer
principal c2 : consumer
trusted t1
trusted t2
trusted t3
trusted t4
deal a1: b pays $5; p1 gives "d"; via t1
deal a2: b pays $5; p2 gives "d"; via t2
deal s1: c1 pays $10; b gives "d"; via t3
deal s2: c2 pays $10; b gives "d"; via t4|}
  in
  check_int "two-for-two reseller clean" 0
    (List.length (Conflict.double_spends ~deal_loc:no_loc spec))

let test_over_pledge_needs_two_splits () =
  (* one split is TL003's business, not TL014's *)
  let one =
    spec_of_source
      {|principal c : consumer
principal p1 : producer
principal p2 : producer
trusted t1
trusted t2
deal a: c pays $10; p1 gives "d1"; via t1
deal b: c pays $20; p2 gives "d2"; via t2
split c : a.buyer|}
  in
  check_int "single split clean" 0
    (List.length (Conflict.over_pledged ~split_loc:no_loc2 one))

let test_deadline_sized_to_span_is_clean () =
  (* the same shape as the TL015 fixture but with a roomy deadline *)
  let spec =
    spec_of_source
      {|principal c : consumer
principal b : broker
principal p : producer
trusted t1
trusted t2
deal bp: b pays $8;  p gives "d"; via t2
deal cb: c pays $10; b gives "d"; via t1 within 40
priority b : cb.seller|}
  in
  match (Feasibility.analyze spec).Feasibility.sequence with
  | None -> Alcotest.fail "spec must be feasible"
  | Some seq ->
    check_int "within 40 is roomy enough" 0
      (List.length (Conflict.deadline_races ~deal_loc:no_loc seq))

(* --- the oracle: static bounds dominate the dynamic ledger ------------ *)

let battery spec =
  let defectable = Harness.defectable_principals spec in
  (None, Harness.honest_run ~mode:Harness.Lockstep spec)
  :: List.concat_map
       (fun q ->
         List.map
           (fun d ->
             ( Some (q, d),
               Harness.adversarial_run ~mode:Harness.Lockstep
                 ~defectors:[ (q, d) ] spec ))
           [ Harness.Silent; Harness.Partial 1; Harness.Partial 2 ])
       defectable

let test_oracle_static_dominates_dynamic () =
  let rng = Prng.create 5151L in
  let specs = Gen.random_transactions rng Gen.default_mix 200 in
  let analyzed = ref 0 and runs = ref 0 in
  List.iteri
    (fun i spec ->
      match (Feasibility.analyze spec).Feasibility.sequence with
      | None -> ()
      | Some seq ->
        incr analyzed;
        let a = Absint.of_sequence seq in
        let hi p =
          match
            List.find_opt
              (fun (iv : Absint.interval) -> Party.equal iv.Absint.i_party p)
              a.Absint.intervals
          with
          | Some iv -> iv.Absint.i_hi
          | None -> 0
        in
        List.iter
          (fun (defection, run) ->
            match run with
            | Error e -> Alcotest.failf "spec %d: run failed: %s" i e
            | Ok result ->
              incr runs;
              let defectors = Option.to_list (Option.map fst defection) in
              let x = E.of_result ~defectors spec result in
              List.iter
                (fun (l : E.party_ledger) ->
                  if
                    not
                      (List.exists (Party.equal l.E.party) defectors)
                  then
                    check
                      (Printf.sprintf
                         "spec %d: static hi(%s)=%d dominates dynamic peak %d"
                         i (Party.name l.E.party) (hi l.E.party)
                         l.E.peak_at_risk)
                      true
                      (hi l.E.party >= l.E.peak_at_risk))
                x.E.parties)
          (battery spec))
    specs;
  check "a healthy share of the corpus was analyzed" true (!analyzed >= 100);
  check "the battery actually ran" true (!runs >= 300)

let test_oracle_certified_never_bound_exceeded () =
  let rng = Prng.create 909L in
  let specs = Gen.random_transactions rng Gen.default_mix 200 in
  let certified = ref 0 in
  List.iteri
    (fun i spec ->
      let diags = Lint.check_spec spec in
      let conflicted =
        List.exists
          (fun d ->
            match d.Diagnostic.code with
            | Diagnostic.Double_spend | Diagnostic.Over_pledged_indemnity
            | Diagnostic.Deadline_race | Diagnostic.Unprovable_bound ->
              true
            | _ -> false)
          diags
      in
      if (not conflicted) && Feasibility.is_feasible spec then begin
        incr certified;
        List.iter
          (fun (defection, run) ->
            match run with
            | Error e -> Alcotest.failf "spec %d: run failed: %s" i e
            | Ok result ->
              let defectors = Option.to_list (Option.map fst defection) in
              let x = E.of_result ~defectors spec result in
              List.iter
                (fun (v : E.violation) ->
                  match v.E.v_kind with
                  | E.Bound_exceeded _ ->
                    Alcotest.failf
                      "spec %d: certified conflict-free, yet honest %s \
                       exceeded its bound"
                      i
                      (Party.name v.E.v_party)
                  | E.Unsettled _ ->
                    (* a defection legitimately leaves honest parties
                       unsettled; only the bound is certified *)
                    ())
                x.E.violations)
          (battery spec)
      end)
    specs;
  check "a healthy share of the corpus is certified" true (!certified >= 80)

let () =
  Alcotest.run "static_exposure"
    [
      ( "worked examples",
        [
          Alcotest.test_case "example1 proves the bound" `Quick test_example1_proved;
          Alcotest.test_case "infeasible specs are vacuous" `Quick test_infeasible_vacuous;
          Alcotest.test_case "stacked sales refute with a schedule" `Quick
            test_refutation_with_schedule;
          Alcotest.test_case "witness is an ascending subsequence" `Quick
            test_witness_is_a_subsequence;
          Alcotest.test_case "shared-policy bound" `Quick test_shared_policy_bound;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "double spend detected" `Quick test_double_spend_detected;
          Alcotest.test_case "honest resale is clean" `Quick test_resale_is_not_double_spend;
          Alcotest.test_case "one split is not an over-pledge" `Quick
            test_over_pledge_needs_two_splits;
          Alcotest.test_case "roomy deadline is clean" `Quick
            test_deadline_sized_to_span_is_clean;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "static bound dominates every dynamic peak (200 specs)"
            `Quick test_oracle_static_dominates_dynamic;
          Alcotest.test_case "certified specs never exceed the bound (200 specs)"
            `Quick test_oracle_certified_never_bound_exceeded;
        ] );
    ]
