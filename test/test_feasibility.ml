open Exchange
module Feasibility = Trust_core.Feasibility
module Reduce = Trust_core.Reduce

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_analyze_feasible () =
  let a = Feasibility.analyze Workload.Scenarios.example1 in
  check "feasible" true (Reduce.feasible a.Feasibility.outcome);
  check "sequence present" true (a.Feasibility.sequence <> None);
  check "no blockers" true (Feasibility.blocking_conjunctions a = [])

let test_analyze_infeasible () =
  let a = Feasibility.analyze Workload.Scenarios.example2 in
  check "infeasible" false (Reduce.feasible a.Feasibility.outcome);
  check "no sequence" true (a.Feasibility.sequence = None);
  let blockers = List.map Party.name (Feasibility.blocking_conjunctions a) in
  check "consumer blocks" true (List.mem "c" blockers);
  check "brokers block" true (List.mem "b1" blockers && List.mem "b2" blockers)

let test_is_feasible () =
  check "example1" true (Feasibility.is_feasible Workload.Scenarios.example1);
  check "example2" false (Feasibility.is_feasible Workload.Scenarios.example2)

let test_rescue_feasible_spec () =
  (* A feasible spec needs no plans. *)
  match Feasibility.rescue_with_indemnities Workload.Scenarios.example1 with
  | Some rescue ->
    check_int "no plans" 0 (List.length rescue.Feasibility.plans);
    check_int "zero indemnity" 0 (Feasibility.total_indemnity rescue)
  | None -> Alcotest.fail "example 1 needs no rescue"

let test_rescue_example2 () =
  match Feasibility.rescue_with_indemnities Workload.Scenarios.example2 with
  | Some rescue ->
    check_int "one conjunction split" 1 (List.length rescue.Feasibility.plans);
    check_int "minimal $10" (Asset.dollars 10) (Feasibility.total_indemnity rescue);
    check "now feasible" true (Reduce.feasible rescue.Feasibility.analysis.Feasibility.outcome)
  | None -> Alcotest.fail "example 2 is rescuable"

let test_rescue_fig7 () =
  match Feasibility.rescue_with_indemnities Workload.Scenarios.fig7 with
  | Some rescue ->
    check_int "fig7 total $70" (Asset.dollars 70) (Feasibility.total_indemnity rescue)
  | None -> Alcotest.fail "fig7 is rescuable"

let test_rescue_poor_broker_fails () =
  (* The poor broker's double-red conjunction is type 3: indemnities do
     not apply, so no rescue exists. *)
  check "no rescue" true
    (Feasibility.rescue_with_indemnities Workload.Scenarios.example1_poor_broker = None)

(* Two consumers each need a two-document bundle bought through
   brokers: the rescue splits both conjunctions, one plan each. *)
let test_rescue_two_bundles () =
  let spec =
    match Trust_lang.Elaborate.from_file "../specs/two_bundles.exg" with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "two_bundles.exg: %s" e
  in
  match Feasibility.rescue_with_indemnities spec with
  | None -> Alcotest.fail "two_bundles is rescuable"
  | Some rescue -> (
    check_int "two conjunctions split" 2 (List.length rescue.Feasibility.plans);
    match Feasibility.merged_plan rescue with
    | None -> Alcotest.fail "a two-plan rescue merges into one plan"
    | Some merged ->
      check_int "merged total $40" 4000 merged.Trust_core.Indemnity.total;
      (* the single synthesis pass hands out the loop's split spec as
         the spec the merged plan defines *)
      Alcotest.(check string)
        "merged plan applied = the rescue's split spec"
        (Trust_serve.Shape.encode rescue.Feasibility.analysis.Feasibility.spec)
        (Trust_serve.Shape.encode (Trust_core.Indemnity.apply merged spec)))

(* [synthesize] is [analyze], then [rescue_from] on that analysis when
   stuck: the same plan and split spec as a rescue started from
   scratch, and the spec as written when rescue is off or impossible. *)
let prop_synthesize_matches_rescue =
  QCheck2.Test.make ~name:"synthesize agrees with rescue_with_indemnities" ~count:150
    QCheck2.Gen.(pair int bool)
    (fun (seed, shared) ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      let encode (a : Feasibility.analysis) = Trust_serve.Shape.encode a.Feasibility.spec in
      let bare = Feasibility.synthesize ~shared ~rescue:false spec in
      let s = Feasibility.synthesize ~shared ~rescue:true spec in
      bare.Feasibility.plan = None
      && String.equal (encode bare.Feasibility.analysis) (Trust_serve.Shape.encode spec)
      &&
      match (Feasibility.is_feasible ~shared spec, Feasibility.rescue_with_indemnities ~shared spec) with
      | true, _ -> s.Feasibility.plan = None && s.Feasibility.analysis.Feasibility.sequence <> None
      | false, None -> s.Feasibility.plan = None && s.Feasibility.analysis.Feasibility.sequence = None
      | false, Some rescue ->
        s.Feasibility.plan = Feasibility.merged_plan rescue
        && String.equal (encode s.Feasibility.analysis) (encode rescue.Feasibility.analysis))

let prop_rescue_reaches_feasibility =
  QCheck2.Test.make ~name:"a successful rescue is actually feasible" ~count:150 QCheck2.Gen.int
    (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      match Feasibility.rescue_with_indemnities spec with
      | None -> true
      | Some rescue -> Reduce.feasible rescue.Feasibility.analysis.Feasibility.outcome)

let prop_fans_always_rescuable =
  QCheck2.Test.make ~name:"pure fans are always rescuable by indemnities" ~count:60
    QCheck2.Gen.(list_size (int_range 2 6) (int_range 1 40))
    (fun dollar_prices ->
      let prices = List.map Asset.dollars dollar_prices in
      Feasibility.rescue_with_indemnities (Workload.Gen.fan ~prices) <> None)

let () =
  Alcotest.run "feasibility"
    [
      ( "analysis",
        [
          Alcotest.test_case "feasible analysis" `Quick test_analyze_feasible;
          Alcotest.test_case "infeasible analysis" `Quick test_analyze_infeasible;
          Alcotest.test_case "is_feasible" `Quick test_is_feasible;
        ] );
      ( "rescue",
        [
          Alcotest.test_case "feasible spec needs no rescue" `Quick test_rescue_feasible_spec;
          Alcotest.test_case "example 2 rescued" `Quick test_rescue_example2;
          Alcotest.test_case "fig7 rescued at $70" `Quick test_rescue_fig7;
          Alcotest.test_case "poor broker unrescuable" `Quick test_rescue_poor_broker_fails;
          Alcotest.test_case "two bundles rescued at $40" `Quick test_rescue_two_bundles;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rescue_reaches_feasibility;
            prop_fans_always_rescuable;
            prop_synthesize_matches_rescue;
          ] );
    ]
