(* The discrete-event runtime: honest runs reach everyone's preferred
   outcome; every single-defector run leaves every honest party in an
   acceptable state (the paper's §1 safety claim); escrows refund at the
   deadline; indemnity deposits settle correctly. *)

open Exchange
module Harness = Trust_sim.Harness
module Engine = Trust_sim.Engine
module Audit = Trust_sim.Audit
module Feasibility = Trust_core.Feasibility
module Indemnity = Trust_core.Indemnity

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let honest spec =
  match Harness.honest_run spec with
  | Ok result -> result
  | Error e -> Alcotest.failf "honest run failed: %s" e

let feasible_scenarios =
  List.filter (fun (_, spec) -> Feasibility.is_feasible spec) Workload.Scenarios.all

let test_honest_runs_reach_preferred () =
  List.iter
    (fun (name, spec) ->
      let result = honest spec in
      let report = Audit.audit spec result in
      if not report.Audit.all_preferred then
        Alcotest.failf "%s: honest run did not reach the preferred outcome" name;
      if not report.Audit.conserved then Alcotest.failf "%s: assets not conserved" name;
      if result.Engine.stalled <> [] then Alcotest.failf "%s: stalled actions" name)
    feasible_scenarios

let test_honest_example1_is_paper_sequence () =
  (* The simulation delivers exactly the ten paper actions (its timing
     interleaves independent branches, so compare as sets). *)
  let result = honest Workload.Scenarios.example1 in
  let delivered = State.of_actions (List.map (fun d -> d.Engine.action) result.Engine.log) in
  let expected = State.of_actions Workload.Scenarios.paper_example1_actions in
  check "same action set" true (State.equal delivered expected)

let test_infeasible_refused () =
  match Harness.honest_run Workload.Scenarios.example2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "example 2 must not assemble"

let test_defectable_principals () =
  let names spec = List.map Party.name (Harness.defectable_principals spec) in
  Alcotest.(check (list string)) "example1" [ "b"; "p"; "c" ]
    (names Workload.Scenarios.example1);
  (* personas are trusted: the producer is not a defection candidate *)
  Alcotest.(check (list string)) "direct sale" [ "c" ]
    (names Workload.Scenarios.simple_sale_direct)

let adversarial spec ?plan defectors =
  match Harness.adversarial_run ?plan ~defectors spec with
  | Ok result -> result
  | Error e -> Alcotest.failf "adversarial run failed: %s" e

let test_modes_agree_honestly () =
  (* Distributed and lockstep honest runs deliver the same action set. *)
  List.iter
    (fun (name, spec) ->
      let run mode =
        match Harness.honest_run ~mode spec with
        | Ok r -> State.of_actions (List.map (fun d -> d.Engine.action) r.Engine.log)
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      if not (State.equal (run Harness.Lockstep) (run Harness.Distributed)) then
        Alcotest.failf "%s: modes disagree" name)
    feasible_scenarios

let test_distributed_mediated_defection_safe () =
  (* For the purely mediated example 1 even the distributed mode is safe
     under any single defection. *)
  let spec = Workload.Scenarios.example1 in
  List.iter
    (fun defector ->
      match
        Harness.adversarial_run ~mode:Harness.Distributed
          ~defectors:[ (defector, Harness.Silent) ] spec
      with
      | Error e -> Alcotest.fail e
      | Ok result ->
        check "honest safe (distributed)" true
          (Audit.audit spec ~defectors:[ defector ] result).Audit.honest_all_acceptable)
    (Harness.defectable_principals spec)

let test_single_defector_sweep () =
  (* For every feasible scenario and every defectable principal, both
     silent and partial defection leave every honest party with no asset
     loss (the unconditional §1 guarantee). *)
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun defector ->
          List.iter
            (fun mode ->
              let result = adversarial spec [ (defector, mode) ] in
              let report = Audit.audit spec ~defectors:[ defector ] result in
              if not report.Audit.honest_no_loss then
                Alcotest.failf "%s: defection of %s costs an honest party an asset" name
                  (Party.name defector);
              if not report.Audit.conserved then Alcotest.failf "%s: conservation" name)
            [ Harness.Silent; Harness.Partial 1; Harness.Partial 2 ])
        (Harness.defectable_principals spec))
    feasible_scenarios

let test_single_defector_acceptability_mediated () =
  (* For fully mediated single-document scenarios (no personas, no
     splits), defection even preserves full acceptability: the only
     bundles are broker resale pairs, which unwind completely. *)
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun defector ->
          List.iter
            (fun mode ->
              let result = adversarial spec [ (defector, mode) ] in
              let report = Audit.audit spec ~defectors:[ defector ] result in
              if not report.Audit.honest_all_acceptable then
                Alcotest.failf "%s: defection of %s leaves an honest party unacceptable" name
                  (Party.name defector))
            [ Harness.Silent; Harness.Partial 1; Harness.Partial 2 ])
        (Harness.defectable_principals spec))
    [
      ("simple_sale", Workload.Scenarios.simple_sale);
      ("example1", Workload.Scenarios.example1);
      ("chain3", Workload.Gen.chain ~brokers:3);
      ("bundle3", Workload.Gen.bundle ~docs:3);
    ]

let test_indemnified_fig7_fully_acceptable () =
  (* With the greedy indemnity plan in place, any single broker or
     source defection still leaves every honest party fully acceptable:
     covered pieces pay out, and an uncovered piece can only stall
     before the bundle becomes irrevocable. *)
  let fig7 = Workload.Scenarios.fig7 in
  let plan = Indemnity.plan_greedy fig7 ~owner:Workload.Scenarios.fig7_consumer in
  List.iter
    (fun defector ->
      List.iter
        (fun mode ->
          let result = adversarial fig7 ~plan [ (defector, mode) ] in
          let report = Audit.audit fig7 ~plan ~defectors:[ defector ] result in
          if not report.Audit.honest_all_acceptable then
            Alcotest.failf "fig7+plan: defection of %s leaves an honest party unacceptable"
              (Party.name defector))
        [ Harness.Silent; Harness.Partial 1; Harness.Partial 2; Harness.Partial 3 ])
    (Harness.defectable_principals fig7)

let test_pairwise_defection_example1 () =
  let spec = Workload.Scenarios.example1 in
  let b = Party.broker "b" and p = Party.producer "p" and c = Party.consumer "c" in
  List.iter
    (fun pair ->
      let result = adversarial spec (List.map (fun d -> (d, Harness.Silent)) pair) in
      let report = Audit.audit spec ~defectors:pair result in
      check "honest safe under two defectors" true report.Audit.honest_all_acceptable)
    [ [ b; p ]; [ b; c ]; [ p; c ] ]

let test_deadline_refund () =
  (* Consumer defects: the producer's document sits at t2 and must come
     back at the deadline. *)
  let spec = Workload.Scenarios.example1 in
  let c = Party.consumer "c" in
  let result = adversarial spec [ (c, Harness.Silent) ] in
  let p = Party.producer "p" and t2 = Party.trusted "t2" in
  let refund = Action.undo (Action.give p t2 "d") in
  check "document returned" true (State.mem refund result.Engine.state);
  (* and the producer ends holding its document *)
  let holdings = List.assoc p result.Engine.holdings in
  check "producer has the document" true (Asset.Bag.holds (Asset.document "d") holdings)

let test_no_deliveries_when_everyone_defects () =
  let spec = Workload.Scenarios.example1 in
  let everyone = Harness.defectable_principals spec in
  let result = adversarial spec (List.map (fun d -> (d, Harness.Silent)) everyone) in
  check_int "silence" 0 (List.length result.Engine.log)

let test_lossy_network_no_loss () =
  (* drop every k-th message: the run may not complete, but deadlines
     unwind whatever is stranded and no honest party loses an asset *)
  List.iter
    (fun k ->
      List.iter
        (fun (name, spec) ->
          match Harness.assemble spec with
          | Error _ -> ()
          | Ok cast ->
            let config =
              {
                Engine.default_config with
                Engine.broadcast = true;
                drop = Some (fun seq _ -> seq mod k = 0);
              }
            in
            let result = Harness.run_cast ~config cast in
            let report = Audit.audit spec result in
            if not report.Audit.honest_no_loss then
              Alcotest.failf "%s with 1/%d drops: honest loss" name k;
            if not report.Audit.conserved then
              Alcotest.failf "%s with 1/%d drops: conservation" name k)
        feasible_scenarios)
    [ 2; 3; 5 ]

(* indemnity paths *)

let fig7 = Workload.Scenarios.fig7
let fig7_plan = Indemnity.plan_greedy fig7 ~owner:Workload.Scenarios.fig7_consumer

let test_indemnity_honest_refunds_deposits () =
  let result =
    match Harness.honest_run ~plan:fig7_plan fig7 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let report = Audit.audit fig7 ~plan:fig7_plan result in
  check "all preferred" true report.Audit.all_preferred;
  (* both deposits returned *)
  List.iter
    (fun refund -> check "deposit refunded" true (State.mem refund result.Engine.state))
    (Indemnity.refunds fig7_plan)

let test_indemnity_forfeit_pays_consumer () =
  (* Broker 3's piece is covered by its own $30 deposit. Broker 3
     deposits and buys document 3 but withholds delivery after the
     consumer paid: at the deadline the consumer's payment is refunded
     and the deposit forfeited to the consumer. *)
  let b3 = Party.broker "b3" in
  let result = adversarial fig7 ~plan:fig7_plan [ (b3, Harness.Partial 2) ] in
  let report = Audit.audit fig7 ~plan:fig7_plan ~defectors:[ b3 ] result in
  check "honest safe" true report.Audit.honest_all_acceptable;
  let payout =
    Action.pay (Party.trusted "t5") Workload.Scenarios.fig7_consumer (Asset.dollars 30)
  in
  check "forfeit delivered" true (State.mem payout result.Engine.state);
  (* the defector is out its deposit, stuck with the document it bought *)
  let holdings = List.assoc b3 result.Engine.holdings in
  check_int "b3 lost the deposit" 0 (Asset.Bag.balance holdings);
  check "b3 stuck with d3" true (Asset.Bag.holds (Asset.document "d3") holdings)

let test_indemnity_unused_deposit_returned () =
  (* When the *consumer* defects, nobody paid for the covered pieces, so
     deposits go back to the brokers. *)
  let c = Workload.Scenarios.fig7_consumer in
  let result = adversarial fig7 ~plan:fig7_plan [ (c, Harness.Silent) ] in
  let report = Audit.audit fig7 ~plan:fig7_plan ~defectors:[ c ] result in
  check "honest safe" true report.Audit.honest_all_acceptable;
  List.iter
    (fun refund -> check "deposit returned" true (State.mem refund result.Engine.state))
    (Indemnity.refunds fig7_plan)

let test_unexpected_arrival_bounced () =
  (* A transfer a trusted component cannot account for is returned. *)
  let spec = Workload.Scenarios.simple_sale in
  let t = Party.trusted "t" in
  let stray_sender = Party.consumer "c" in
  let stray = Action.{ source = stray_sender; target = t; asset = Asset.money 123 } in
  let behaviors =
    [
      Trust_sim.Behavior.scripted stray_sender
        [ { Trust_core.Protocol.condition = Trust_core.Protocol.Now; action = Action.Do stray } ];
      Trust_sim.Behavior.escrow spec t ~notifies:[] ~deals:(Spec.mediated_by spec t) ~deposits:[];
    ]
  in
  let result = Engine.run spec ~deposits:[] ~behaviors in
  check "bounced" true (State.mem (Action.Undo stray) result.Engine.state)

let prop_generated_single_defector_safe =
  QCheck2.Test.make
    ~name:"generated feasible transactions never cost an honest party an asset" ~count:60
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      if not (Feasibility.is_feasible spec) then true
      else
        List.for_all
          (fun defector ->
            match Harness.adversarial_run ~defectors:[ (defector, Harness.Silent) ] spec with
            | Error _ -> false
            | Ok result ->
              (Audit.audit spec ~defectors:[ defector ] result).Audit.honest_no_loss)
          (Harness.defectable_principals spec))

let prop_honest_runs_preferred =
  QCheck2.Test.make ~name:"generated feasible transactions complete honestly" ~count:60
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      match Harness.honest_run spec with
      | Error _ -> not (Feasibility.is_feasible spec)
      | Ok result ->
        let report = Audit.audit spec result in
        report.Audit.all_preferred && report.Audit.conserved)

let () =
  Alcotest.run "sim"
    [
      ( "honest runs",
        [
          Alcotest.test_case "scenarios reach preferred" `Quick test_honest_runs_reach_preferred;
          Alcotest.test_case "example 1 delivers the paper's actions" `Quick
            test_honest_example1_is_paper_sequence;
          Alcotest.test_case "infeasible specs refused" `Quick test_infeasible_refused;
          Alcotest.test_case "defectable principals" `Quick test_defectable_principals;
        ] );
      ( "adversaries",
        [
          Alcotest.test_case "single-defector sweep" `Quick test_single_defector_sweep;
          Alcotest.test_case "mediated defection fully acceptable" `Quick
            test_single_defector_acceptability_mediated;
          Alcotest.test_case "indemnified fig7 fully acceptable" `Quick
            test_indemnified_fig7_fully_acceptable;
          Alcotest.test_case "pairwise defection" `Quick test_pairwise_defection_example1;
          Alcotest.test_case "deadline refunds" `Quick test_deadline_refund;
          Alcotest.test_case "total silence" `Quick test_no_deliveries_when_everyone_defects;
          Alcotest.test_case "modes agree on honest runs" `Quick test_modes_agree_honestly;
          Alcotest.test_case "distributed mode safe when mediated" `Quick
            test_distributed_mediated_defection_safe;
          Alcotest.test_case "unexpected arrival bounced" `Quick test_unexpected_arrival_bounced;
          Alcotest.test_case "lossy network: no honest loss" `Quick test_lossy_network_no_loss;
        ] );
      ( "indemnities",
        [
          Alcotest.test_case "honest run returns deposits" `Quick
            test_indemnity_honest_refunds_deposits;
          Alcotest.test_case "forfeit pays the consumer" `Quick test_indemnity_forfeit_pays_consumer;
          Alcotest.test_case "unused deposits returned" `Quick
            test_indemnity_unused_deposit_returned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generated_single_defector_safe; prop_honest_runs_preferred ] );
    ]
