(* The analyzer's contract: every specs/lint fixture triggers exactly
   its own code, the named scenarios lint to known verdicts, the exit
   codes follow the documented contract, the safety verifier accepts
   every synthesized sequence and rejects corrupted ones with a
   per-party explanation, and the serve admission gate aborts
   error-level specs before synthesis. *)

open Exchange
module Diagnostic = Trust_analyze.Diagnostic
module Lint = Trust_analyze.Lint
module Verifier = Trust_analyze.Verifier
module Feasibility = Trust_core.Feasibility
module Execution = Trust_core.Execution
module Elaborate = Trust_lang.Elaborate
module Scenarios = Workload.Scenarios
module Gen = Workload.Gen
module Prng = Workload.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let codes diagnostics =
  List.map (fun d -> Diagnostic.code_id d.Diagnostic.code) diagnostics

let check_codes label expected diagnostics =
  Alcotest.(check (list string)) label expected (codes diagnostics)

let fixture name = Filename.concat "../specs/lint" name

(* --- fixtures: one code each ---------------------------------------- *)

let fixture_expectations =
  [
    ("clean.exg", [], 0);
    ("tl001_unused_party.exg", [ "TL001" ], 0);
    ("tl002_dead_asset.exg", [ "TL002" ], 0);
    ("tl003_unbacked_split.exg", [ "TL003" ], 0);
    ("tl004_redundant_priority.exg", [ "TL004" ], 0);
    ("tl005_contradictory_priorities.exg", [ "TL005" ], 1);
    ("tl006_unreachable.exg", [ "TL006" ], 1);
    ("tl007_vacuous_intermediary.exg", [ "TL007" ], 0);
    ("tl008_zero_leg.exg", [ "TL008" ], 0);
    ("tl009_rescuable.exg", [ "TL009" ], 0);
    ("tl010_parse_error.exg", [ "TL010" ], 2);
    ("tl010_overlong_money.exg", [ "TL010" ], 2);
    ("tl011_undeclared_party.exg", [ "TL011"; "TL011"; "TL011" ], 1);
    ("tl013_double_spend.exg", [ "TL013" ], 1);
    (* the over-pledge's two enabling splits are each unbacked (TL003);
       sorted by source location the over-pledge lands between them *)
    ("tl014_over_pledged_indemnity.exg", [ "TL003"; "TL014"; "TL003" ], 0);
    ("tl015_deadline_race.exg", [ "TL015" ], 0);
    (* the enabling split is unbacked; TL016/TL017 have no location and
       sort after it *)
    ("tl016_unprovable_bound.exg", [ "TL003"; "TL016"; "TL017" ], 0);
  ]

let test_fixtures () =
  List.iter
    (fun (name, expected, status) ->
      let diagnostics = Lint.lint_file (fixture name) in
      check_codes name expected diagnostics;
      check_int (name ^ " exit") status (Lint.exit_status diagnostics);
      (* every diagnostic names the file it came from *)
      List.iter
        (fun d ->
          check (name ^ " carries file") true
            (d.Diagnostic.file = Some (fixture name)))
        diagnostics)
    fixture_expectations

let test_fixture_locations () =
  (* Structural diagnostics point at the offending declaration. *)
  let line name expected_line =
    match Lint.lint_file (fixture name) with
    | [ d ] -> (
      match d.Diagnostic.loc with
      | Some loc -> check_int (name ^ " line") expected_line loc.Trust_lang.Loc.line
      | None -> Alcotest.failf "%s: diagnostic has no location" name)
    | ds -> Alcotest.failf "%s: expected one diagnostic, got %d" name (List.length ds)
  in
  line "tl001_unused_party.exg" 5;
  line "tl002_dead_asset.exg" 6;
  line "tl003_unbacked_split.exg" 13;
  line "tl004_redundant_priority.exg" 9;
  line "tl005_contradictory_priorities.exg" 12;
  line "tl007_vacuous_intermediary.exg" 9;
  line "tl008_zero_leg.exg" 7;
  line "tl010_parse_error.exg" 2;
  line "tl010_overlong_money.exg" 4;
  line "tl013_double_spend.exg" 12;
  line "tl015_deadline_race.exg" 12

(* --- scenarios: table-driven verdicts ------------------------------- *)

let scenario_expectations =
  [
    ("simple_sale", []);
    ("simple_sale_direct", [ "TL007" ]);
    ("example1", []);
    ("example1_poor_broker", [ "TL005" ]);
    ("example2", [ "TL009" ]);
    ("example2_source_trusts_broker", []);
    ("example2_broker_trusts_source", [ "TL009" ]);
    ("example2_broker1_indemnifies", [ "TL003" ]);
    ("fig7", [ "TL009" ]);
  ]

let test_scenarios () =
  List.iter
    (fun (name, spec) ->
      match List.assoc_opt name scenario_expectations with
      | None -> Alcotest.failf "scenario %s has no lint expectation" name
      | Some expected -> check_codes name expected (Lint.check_spec spec))
    Scenarios.all

let test_quick_mode_subset () =
  (* Quick mode only drops the deep (feasibility-based) rules. *)
  List.iter
    (fun (_, spec) ->
      let deep = codes (Lint.check_spec spec) in
      let quick = codes (Lint.check_spec ~deep:false spec) in
      List.iter
        (fun c -> check ("quick code " ^ c ^ " also found deep") true (List.mem c deep))
        quick;
      List.iter
        (fun c ->
          if not (List.mem c quick) then
            check ("dropped code " ^ c ^ " is a deep or static rule") true
              (List.mem c
                 [ "TL006"; "TL007"; "TL009"; "TL012"; "TL015"; "TL016"; "TL017" ]))
        deep)
    Scenarios.all

(* --- exit-code contract --------------------------------------------- *)

let test_exit_status () =
  let diag ?severity code = Diagnostic.make ?severity code "x" in
  check_int "empty is clean" 0 (Lint.exit_status []);
  check_int "info never gates" 0
    (Lint.exit_status [ diag Diagnostic.Rescuable_infeasibility ]);
  check_int "info never gates under Werror" 0
    (Lint.exit_status ~werror:true [ diag Diagnostic.Rescuable_infeasibility ]);
  check_int "warning passes by default" 0
    (Lint.exit_status [ diag Diagnostic.Unused_party ]);
  check_int "warning gates under Werror" 1
    (Lint.exit_status ~werror:true [ diag Diagnostic.Unused_party ]);
  check_int "error gates" 1
    (Lint.exit_status [ diag Diagnostic.Contradictory_priorities ]);
  check_int "parse error is exit 2" 2
    (Lint.exit_status [ diag Diagnostic.Parse_error ]);
  check_int "parse error wins over error" 2
    (Lint.exit_status
       [ diag Diagnostic.Contradictory_priorities; diag Diagnostic.Parse_error ])

let test_render_deterministic () =
  let diagnostics = Lint.lint_file (fixture "tl009_rescuable.exg") in
  check_string "human rendering is stable" (Lint.render Lint.Human diagnostics)
    (Lint.render Lint.Human diagnostics);
  let json = Lint.render Lint.Json diagnostics in
  check "json mentions the code" true
    (String.length json > 0
    &&
    let re = "TL009" in
    let rec find i =
      i + String.length re <= String.length json
      && (String.sub json i (String.length re) = re || find (i + 1))
    in
    find 0);
  let sarif = Lint.render Lint.Sarif diagnostics in
  let contains needle =
    let re = needle in
    let rec find i =
      i + String.length re <= String.length sarif
      && (String.sub sarif i (String.length re) = re || find (i + 1))
    in
    find 0
  in
  check "sarif declares the version" true (contains "\"2.1.0\"");
  (* the driver advertises every stable rule with a docs anchor *)
  check "sarif carries rule metadata" true (contains "\"rules\":[");
  List.iter
    (fun code ->
      check
        ("sarif rule " ^ Diagnostic.code_id code ^ " has a helpUri anchor")
        true
        (contains
           (Printf.sprintf "\"helpUri\":%s"
              (Printf.sprintf "\"%s\"" (Diagnostic.help_uri code)))))
    Diagnostic.all_codes

(* --- satellite: file:line:col rendering, sorted elaboration errors --- *)

let test_error_rendering () =
  (* The pass-2 errors (undeclared p, t on line 1) are discovered after
     the pass-1 error (duplicate c on line 3); rendering must sort them
     back into document order and prefix the file name. *)
  let src =
    "deal cp: c pays $10; p gives \"d\"; via t\n\
     principal c : consumer\n\
     principal c : consumer\n"
  in
  (match Elaborate.from_string ~file:"bad.exg" src with
  | Ok _ -> Alcotest.fail "expected elaboration errors"
  | Error rendered -> (
    match String.split_on_char '\n' rendered with
    | first :: rest ->
      check "first error is on line 1" true
        (String.length first >= 10 && String.sub first 0 10 = "bad.exg:1:");
      List.iter
        (fun line ->
          check "every error carries the file" true
            (String.length line >= 8 && String.sub line 0 8 = "bad.exg:"))
        rest;
      check_int "three errors" 3 (List.length (first :: rest))
    | [] -> Alcotest.fail "no rendered errors"));
  match Elaborate.from_string src with
  | Ok _ -> Alcotest.fail "expected elaboration errors"
  | Error rendered -> (
    match String.split_on_char '\n' rendered with
    | first :: _ ->
      check "without a file the prefix is line:col" true
        (String.length first >= 5 && String.sub first 0 5 = "1:22:")
    | [] -> Alcotest.fail "no rendered errors")

let test_loc_compare () =
  let open Trust_lang.Loc in
  check "line dominates" true (compare { line = 1; col = 9 } { line = 2; col = 1 } < 0);
  check "column breaks ties" true (compare { line = 2; col = 1 } { line = 2; col = 4 } < 0);
  check_int "equal" 0 (compare { line = 3; col = 3 } { line = 3; col = 3 })

(* --- safety verifier ------------------------------------------------- *)

let example1_sequence () =
  match (Feasibility.analyze Scenarios.example1).Feasibility.sequence with
  | Some seq -> seq
  | None -> Alcotest.fail "example1 must be feasible"

let test_verifier_accepts_example1 () =
  (match Verifier.verify (example1_sequence ()) with
  | Ok () -> ()
  | Error exposures -> Alcotest.failf "unexpected exposures:\n%s" (Verifier.explain exposures));
  List.iter
    (fun (name, spec) ->
      match (Feasibility.analyze spec).Feasibility.sequence with
      | None -> ()
      | Some seq -> (
        match Verifier.verify seq with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: unexpected exposures:\n%s" name (Verifier.explain e)))
    Scenarios.all

let test_verifier_rejects_dropped_commit () =
  (* Drop the consumer's payment commit: t1 then releases the broker's
     document against nothing — the broker is exposed. *)
  let seq = example1_sequence () in
  let dropped = { Spec.deal = "cb"; side = Spec.Left } in
  let steps =
    List.filter
      (fun (s : Execution.step) ->
        match s.Execution.origin with
        | Execution.Commit cref -> not (Spec.equal_ref cref dropped)
        | _ -> true)
      seq.Execution.steps
  in
  check "one step was dropped" true
    (List.length steps = List.length seq.Execution.steps - 1);
  match Verifier.verify { seq with Execution.steps } with
  | Ok () -> Alcotest.fail "corrupted sequence must be rejected"
  | Error exposures ->
    let explanation = Verifier.explain exposures in
    check "broker b is named exposed" true
      (let re = "party b is exposed:" in
       let rec find i =
         i + String.length re <= String.length explanation
         && (String.sub explanation i (String.length re) = re || find (i + 1))
       in
       find 0);
    check "some exposure is on the broken deal" true
      (List.exists (fun e -> e.Verifier.deal = "cb") exposures)

let test_verifier_rejects_truncation () =
  (* Cut the sequence after the commits: everything is escrowed,
     nothing delivered — every committed party is exposed at
     termination. *)
  let seq = example1_sequence () in
  let steps =
    List.filter
      (fun (s : Execution.step) ->
        match s.Execution.origin with
        | Execution.Commit _ | Execution.Notification _ -> true
        | Execution.Forward _ -> false)
      seq.Execution.steps
  in
  match Verifier.verify { seq with Execution.steps } with
  | Ok () -> Alcotest.fail "truncated sequence must be rejected"
  | Error exposures ->
    check "termination exposures present" true
      (List.exists (fun e -> e.Verifier.step = 0) exposures)

(* --- property tests over random workloads ---------------------------- *)

let test_linter_total_on_random () =
  let rng = Prng.create 7L in
  let specs = Gen.random_transactions rng Gen.default_mix 100 in
  List.iteri
    (fun i spec ->
      let diagnostics = Lint.check_spec spec in
      (* a gating diagnostic on a random spec must never be a crash
         stand-in: every diagnostic has a code and message *)
      List.iter
        (fun d ->
          check
            (Printf.sprintf "spec %d diagnostic has a message" i)
            true
            (String.length d.Diagnostic.message > 0))
        diagnostics)
    specs

let test_verifier_accepts_synthesized () =
  let rng = Prng.create 11L in
  let specs = Gen.random_transactions rng Gen.default_mix 100 in
  let verified = ref 0 in
  List.iteri
    (fun i spec ->
      match (Feasibility.analyze spec).Feasibility.sequence with
      | None -> ()
      | Some seq -> (
        incr verified;
        match Verifier.verify seq with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "random spec %d: synthesized sequence unsafe:\n%s" i
            (Verifier.explain e)))
    specs;
  check "a healthy share of random specs is feasible" true (!verified > 20);
  (* the shared-agent reduction must stay safe too *)
  List.iteri
    (fun i spec ->
      match (Feasibility.analyze ~shared:true spec).Feasibility.sequence with
      | None -> ()
      | Some seq -> (
        match Verifier.verify seq with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "random spec %d (shared): sequence unsafe:\n%s" i
            (Verifier.explain e)))
    specs

(* --- serve admission gate -------------------------------------------- *)

let test_serve_lint_gate () =
  let module Scheduler = Trust_serve.Scheduler in
  let module Session = Trust_serve.Session in
  let module Cache = Trust_serve.Cache in
  let module Metrics = Trust_serve.Metrics in
  let metrics = Metrics.create () in
  let cache = Cache.create Cache.default_policy in
  let double_spend =
    match
      Elaborate.from_string
        {|principal b : broker
principal c1 : consumer
principal c2 : consumer
trusted t1
trusted t2
deal s1: c1 pays $10; b gives "d"; via t1
deal s2: c2 pays $10; b gives "d"; via t2|}
    with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "double-spend spec must elaborate: %s" e
  in
  let sessions =
    [
      Session.make ~id:0 Scenarios.example1_poor_broker;
      Session.make ~id:1 Scenarios.example1;
      Session.make ~id:2 double_spend;
    ]
  in
  let _stats = Scheduler.run ~metrics Scheduler.default_config cache sessions in
  (match (List.nth sessions 0).Session.status with
  | Session.Aborted reason ->
    check "abort reason is the lint diagnostic" true
      (String.length reason >= 13 && String.sub reason 0 13 = "lint: [TL005]")
  | s -> Alcotest.failf "expected lint abort, got %s" (Session.status_label s));
  (match (List.nth sessions 1).Session.status with
  | Session.Settled -> ()
  | s -> Alcotest.failf "clean session should settle, got %s" (Session.status_label s));
  (* the structural conflict pass runs in the quick admission gate too:
     a double spend is refused with its code before synthesis *)
  (match (List.nth sessions 2).Session.status with
  | Session.Aborted reason ->
    check "double spend refused with its code" true
      (String.length reason >= 13 && String.sub reason 0 13 = "lint: [TL013]")
  | s -> Alcotest.failf "expected TL013 abort, got %s" (Session.status_label s));
  check_int "lint rejections counted" 2
    (Metrics.value (Metrics.counter metrics "serve_sessions_lint_rejected_total"));
  check_int "lint rejections also count as aborts" 2
    (Metrics.value (Metrics.counter metrics "serve_sessions_aborted_total"))

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "each fixture triggers exactly its code" `Quick test_fixtures;
          Alcotest.test_case "diagnostics carry locations" `Quick test_fixture_locations;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "table-driven verdicts" `Quick test_scenarios;
          Alcotest.test_case "quick mode is a subset" `Quick test_quick_mode_subset;
        ] );
      ( "contract",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_status;
          Alcotest.test_case "rendering deterministic and parseable" `Quick
            test_render_deterministic;
        ] );
      ( "locations",
        [
          Alcotest.test_case "file:line:col rendering, sorted" `Quick test_error_rendering;
          Alcotest.test_case "Loc.compare" `Quick test_loc_compare;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts every scenario sequence" `Quick
            test_verifier_accepts_example1;
          Alcotest.test_case "rejects a dropped commit" `Quick
            test_verifier_rejects_dropped_commit;
          Alcotest.test_case "rejects truncation" `Quick test_verifier_rejects_truncation;
        ] );
      ( "properties",
        [
          Alcotest.test_case "linter total on random specs" `Quick test_linter_total_on_random;
          Alcotest.test_case "verifier accepts synthesized protocols" `Quick
            test_verifier_accepts_synthesized;
        ] );
      ( "serve",
        [ Alcotest.test_case "admission gate aborts on lint errors" `Quick test_serve_lint_gate ] );
    ]
