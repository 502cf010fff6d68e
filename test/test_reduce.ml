(* The reduction rules (§4.2): the paper's walkthroughs, rule order,
   direct-trust variants and confluence. *)

open Exchange
module Sequencing = Trust_core.Sequencing
module Reduce = Trust_core.Reduce

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run spec = Reduce.run (Sequencing.build spec)

let test_example1_feasible () =
  let outcome = run Workload.Scenarios.example1 in
  check "feasible" true (Reduce.feasible outcome);
  check_int "six deletions" 6 (List.length outcome.Reduce.deletions)

let test_example1_deletion_walkthrough () =
  (* §4.2.2 walks: producer-side Rule#1; AND-t2 Rule#2; consumer-side
     Rule#1; AND-t1 Rule#2; the red edge by Rule#1; the last edge. *)
  let outcome = run Workload.Scenarios.example1 in
  let g = outcome.Reduce.graph in
  let describe (d : Reduce.deletion) =
    let c = Sequencing.commitment g d.Reduce.cid in
    ( d.Reduce.rule,
      (c.Sequencing.cref.Spec.deal, c.Sequencing.cref.Spec.side),
      d.Reduce.colour )
  in
  let expected =
    [
      (Reduce.Rule1, ("bp", Spec.Right), Sequencing.Black);
      (Reduce.Rule2, ("bp", Spec.Left), Sequencing.Black);
      (Reduce.Rule1, ("cb", Spec.Left), Sequencing.Black);
      (Reduce.Rule2, ("cb", Spec.Right), Sequencing.Black);
      (Reduce.Rule1, ("cb", Spec.Right), Sequencing.Red);
      (Reduce.Rule2, ("bp", Spec.Left), Sequencing.Black);
    ]
  in
  List.iteri
    (fun i (d : Reduce.deletion) ->
      let got = describe d in
      if got <> List.nth expected i then
        Alcotest.failf "deletion %d diverges from the paper's walkthrough" (i + 1))
    outcome.Reduce.deletions

let test_red_edge_removed_by_rule1 () =
  (* "the red edge may be removed by Rule #1" — not blocked by itself. *)
  let outcome = run Workload.Scenarios.example1 in
  let red =
    List.find (fun d -> d.Reduce.colour = Sequencing.Red) outcome.Reduce.deletions
  in
  check "rule 1" true (red.Reduce.rule = Reduce.Rule1)

let test_example2_stuck_at_figure6 () =
  let outcome = run Workload.Scenarios.example2 in
  check "infeasible" false (Reduce.feasible outcome);
  check_int "four deletions before the impasse" 4 (List.length outcome.Reduce.deletions);
  match outcome.Reduce.verdict with
  | Reduce.Feasible -> Alcotest.fail "expected stuck"
  | Reduce.Stuck { remaining } -> check_int "ten edges remain (figure 6)" 10 (List.length remaining)

let test_poor_broker_stuck () =
  (* §5: two red edges on one conjunction are mutually pre-empting. *)
  let outcome = run Workload.Scenarios.example1_poor_broker in
  check "infeasible" false (Reduce.feasible outcome);
  match outcome.Reduce.verdict with
  | Reduce.Feasible -> Alcotest.fail "expected stuck"
  | Reduce.Stuck { remaining } ->
    check_int "both red edges stuck" 2 (List.length remaining);
    check "all red" true
      (List.for_all (fun (_, _, colour) -> colour = Sequencing.Red) remaining)

let test_variant1_feasible () =
  (* §4.2.3: Source1 trusts Broker1 -> feasible (domino effect). *)
  let outcome = run Workload.Scenarios.example2_source_trusts_broker in
  check "feasible" true (Reduce.feasible outcome);
  check_int "all fourteen edges deleted" 14 (List.length outcome.Reduce.deletions);
  check "persona clause used" true
    (List.exists (fun d -> d.Reduce.rule = Reduce.Rule1_persona) outcome.Reduce.deletions)

let test_variant2_stuck () =
  (* §4.2.3: Broker1 trusts Source1 -> still infeasible. *)
  let outcome = run Workload.Scenarios.example2_broker_trusts_source in
  check "infeasible" false (Reduce.feasible outcome);
  check_int "same four deletions" 4 (List.length outcome.Reduce.deletions)

let test_split_makes_example2_feasible () =
  let outcome = run Workload.Scenarios.example2_broker1_indemnifies in
  check "feasible" true (Reduce.feasible outcome)

let test_fig7_stuck () =
  let outcome = run Workload.Scenarios.fig7 in
  check "infeasible" false (Reduce.feasible outcome)

let test_deletion_log_consistent () =
  let outcome = run Workload.Scenarios.example1 in
  List.iteri
    (fun i d -> check_int "steps numbered from 1" (i + 1) d.Reduce.step)
    outcome.Reduce.deletions;
  (* every edge deleted at most once *)
  let keys = List.map (fun d -> (d.Reduce.cid, d.Reduce.jid)) outcome.Reduce.deletions in
  check "unique deletions" true (List.length keys = List.length (List.sort_uniq compare keys))

let test_applicable_initial () =
  let g = Sequencing.build Workload.Scenarios.example1 in
  let candidates = Ref_reduce.applicable g in
  (* Initially both external commitments (producer, consumer side) are
     removable and nothing else. *)
  check_int "two candidates" 2 (List.length candidates);
  check "all rule1" true (List.for_all (fun (r, _, _) -> r = Reduce.Rule1) candidates)

let test_chains_feasible () =
  List.iter
    (fun n ->
      check
        (Printf.sprintf "chain %d feasible" n)
        true
        (Reduce.feasible (run (Workload.Gen.chain ~brokers:n))))
    [ 0; 1; 2; 3; 8 ]

let test_fans_infeasible () =
  List.iter
    (fun k ->
      let prices = List.init k (fun i -> Asset.dollars (10 * (i + 1))) in
      check
        (Printf.sprintf "fan %d infeasible" k)
        false
        (Reduce.feasible (run (Workload.Gen.fan ~prices))))
    [ 2; 3; 4 ]

let test_fan1_feasible () =
  check "single-document fan is example 1" true
    (Reduce.feasible (run (Workload.Gen.fan ~prices:[ Asset.dollars 10 ])))

let test_bundles_feasible () =
  (* broker-free bundles have no red edges: producers deposit first *)
  List.iter
    (fun k ->
      check
        (Printf.sprintf "bundle %d feasible" k)
        true
        (Reduce.feasible (run (Workload.Gen.bundle ~docs:k))))
    [ 1; 2; 3; 5 ]

(* a consumer buys [n] documents from [n] producers, every deal through
   the same agent *)
let shared_bundle n =
  let c = Party.consumer "c" and t = Party.trusted "t" in
  Spec.make_exn
    (List.init n (fun i ->
         Spec.sale ~id:(Printf.sprintf "cp%d" i) ~buyer:c
           ~seller:(Party.producer (Printf.sprintf "p%d" i))
           ~via:t ~price:(Asset.dollars (10 * (i + 1))) ~good:(Printf.sprintf "d%d" i)))

let test_shared_agent_rule () =
  (* the paper's two rules are stuck on a shared-agent bundle; the §9
     extension (Rule #3) makes it feasible *)
  let spec = shared_bundle 2 in
  check "paper rules stuck" false (Reduce.feasible (run spec));
  let outcome = Reduce.run ~shared:true (Sequencing.build spec) in
  check "extension feasible" true (Reduce.feasible outcome);
  check "rule 3 used" true
    (List.exists (fun d -> d.Reduce.rule = Reduce.Rule3_shared) outcome.Reduce.deletions)

let test_shared_rule_no_false_positives () =
  (* the extension must not declare the paper's infeasible examples
     feasible: their conjunctions are not single-agent *)
  List.iter
    (fun (name, spec) ->
      let paper = Reduce.feasible (Reduce.run (Sequencing.build spec)) in
      let extended = Reduce.feasible (Reduce.run ~shared:true (Sequencing.build spec)) in
      if paper <> extended then Alcotest.failf "%s: extension changed the verdict" name)
    Workload.Scenarios.all

let test_shared_rule_respects_reds () =
  (* a broker conjunction through one agent still keeps its red ordering *)
  let c = Party.consumer "c" and b = Party.broker "b" and p = Party.producer "p" in
  let t = Party.trusted "t" in
  let spec =
    Spec.make_exn
      ~priorities:[ (b, { Spec.deal = "cb"; side = Spec.Right }) ]
      [
        Spec.sale ~id:"bp" ~buyer:b ~seller:p ~via:t ~price:(Asset.dollars 8) ~good:"d";
        Spec.sale ~id:"cb" ~buyer:c ~seller:b ~via:t ~price:(Asset.dollars 10) ~good:"d";
      ]
  in
  let outcome = Reduce.run ~shared:true (Sequencing.build spec) in
  check "red conjunctions never split by rule 3" true
    (List.for_all
       (fun d ->
         d.Reduce.rule <> Reduce.Rule3_shared
         || Party.is_principal (Sequencing.conjunction outcome.Reduce.graph d.Reduce.jid).Sequencing.owner)
       outcome.Reduce.deletions)

(* §4.2.4 confluence: the feasibility verdict does not depend on the
   reduction order. *)

let deletion_key (d : Reduce.deletion) =
  (d.Reduce.step, d.Reduce.rule, d.Reduce.cid, d.Reduce.jid, d.Reduce.colour)

let same_outcome a b =
  Reduce.feasible a = Reduce.feasible b
  && List.map deletion_key a.Reduce.deletions = List.map deletion_key b.Reduce.deletions

let test_worklist_scenarios () =
  List.iter
    (fun (name, spec) ->
      let naive = Ref_reduce.run (Sequencing.build spec) in
      let fast = Reduce.run (Sequencing.build spec) in
      if not (same_outcome naive fast) then
        Alcotest.failf "%s: worklist diverges from the rescanning oracle" name)
    Workload.Scenarios.all

let test_worklist_counts () =
  (* a feasible reduction deletes every edge regardless of strategy *)
  let spec = Workload.Gen.chain ~brokers:5 in
  let edge_total = Sequencing.edge_count (Sequencing.build spec) in
  let outcome = Reduce.run (Sequencing.build spec) in
  check "feasible" true (Reduce.feasible outcome);
  check_int "all edges deleted" edge_total (List.length outcome.Reduce.deletions)

let prop_worklist_agrees =
  (* The worklist reducer is the default path ([Reduce.run]); the
     rescanning implementation is kept as the oracle. The two
     must agree on the verdict *and* the deletion sequence — every step,
     rule, edge and colour — or the §5 execution sequences would drift. *)
  QCheck2.Test.make ~name:"worklist reducer replays the rescanning oracle exactly" ~count:200
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      same_outcome
        (Ref_reduce.run (Sequencing.build spec))
        (Reduce.run (Sequencing.build spec)))

(* The shared policy's Rule #3 on the worklist reducer against the
   rescanning oracle. Random marketplace transactions never have two
   deals of one principal through one agent, so the comparison also
   runs a seeded shared-agent family and wide shared bundles, where
   Rule #3 does fire. *)

(* Consumers each buy 2–5 documents through one agent. A seller is a
   producer or, one time in three, a broker that buys the document from
   a producer first — through the consumer's agent or its own, and with
   or without a red edge securing its buyer. Now and then a seller
   trusts its buyer directly. *)
let shared_family rng =
  let module Prng = Workload.Prng in
  let coin n = Prng.int rng n = 0 in
  let deals = ref [] and priorities = ref [] and personas = ref [] in
  let add d = deals := d :: !deals in
  for ci = 1 to 1 + Prng.int rng 2 do
    let consumer = Party.consumer (Printf.sprintf "c%d" ci) in
    let agent = Party.trusted (Printf.sprintf "t%d" ci) in
    let agent_only_sells = ref true in
    for j = 1 to 2 + Prng.int rng 4 do
      let name fmt = Printf.sprintf fmt ci j in
      let good = name "d%d_%d" and id = name "c%d_%d" in
      let price = Asset.dollars (10 * j) in
      let producer = Party.producer (name "p%d_%d") in
      let seller =
        if coin 3 then begin
          let broker = Party.broker (name "b%d_%d") in
          let via =
            if coin 2 then begin
              agent_only_sells := false;
              agent
            end
            else begin
              let own = Party.trusted (name "u%d_%d") in
              if coin 4 then personas := (own, broker) :: !personas;
              own
            end
          in
          add
            (Spec.sale ~id:(name "b%d_%d") ~buyer:broker ~seller:producer ~via
               ~price:(price * 8 / 10) ~good);
          if coin 2 then priorities := (broker, { Spec.deal = id; side = Spec.Right }) :: !priorities;
          broker
        end
        else producer
      in
      add (Spec.sale ~id ~buyer:consumer ~seller ~via:agent ~price ~good)
    done;
    if !agent_only_sells && coin 4 then personas := (agent, consumer) :: !personas
  done;
  Spec.make_exn ~personas:!personas ~priorities:!priorities (List.rev !deals)

let test_shared_worklist_replays_oracle () =
  let corpus_rng = Workload.Prng.create 0x5EED_L and family_rng = Workload.Prng.create 0xB0B_L in
  let specs =
    Workload.Scenarios.all
    @ List.init 200 (fun i ->
          ( Printf.sprintf "corpus %d" i,
            Workload.Gen.random_transaction corpus_rng Workload.Gen.default_mix ))
    @ List.init 300 (fun i -> (Printf.sprintf "family %d" i, shared_family family_rng))
    @ List.map (fun n -> (Printf.sprintf "shared bundle %d" n, shared_bundle n)) [ 16; 64; 128 ]
  in
  let rule3_runs = ref 0 in
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun granular ->
          let oracle = Ref_reduce.run ~shared:true (Sequencing.build ~granular spec) in
          let worklist = Reduce.run ~shared:true (Sequencing.build ~granular spec) in
          if not (same_outcome oracle worklist) then
            Alcotest.failf "%s (granular %b): worklist diverges from the rescanning oracle" name
              granular;
          if List.exists (fun d -> d.Reduce.rule = Reduce.Rule3_shared) oracle.Reduce.deletions
          then incr rule3_runs)
        [ false; true ])
    specs;
  check "rule 3 fired in some runs" true (!rule3_runs > 0)

let prop_confluence =
  QCheck2.Test.make ~name:"randomized reduction order preserves the verdict" ~count:200
    QCheck2.Gen.(pair int int)
    (fun (spec_seed, order_seed) ->
      let rng = Workload.Prng.create (Int64.of_int spec_seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      let deterministic = Reduce.feasible (Reduce.run (Sequencing.build spec)) in
      let order_rng = Workload.Prng.create (Int64.of_int order_seed) in
      let randomized =
        Reduce.feasible
          (Ref_reduce.run_randomized
             ~choose:(fun n -> Workload.Prng.int order_rng n)
             (Sequencing.build spec))
      in
      deterministic = randomized)

let prop_feasible_deletes_everything =
  QCheck2.Test.make ~name:"feasible outcomes delete every edge exactly once" ~count:150
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      let edge_total = Sequencing.edge_count (Sequencing.build spec) in
      let outcome = Reduce.run (Sequencing.build spec) in
      if Reduce.feasible outcome then List.length outcome.Reduce.deletions = edge_total
      else List.length outcome.Reduce.deletions < edge_total)

let prop_direct_trust_only_helps =
  QCheck2.Test.make ~name:"declaring direct trust never breaks a feasible exchange" ~count:100
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      if not (Reduce.feasible (Reduce.run (Sequencing.build spec))) then true
      else
        (* add sellers-as-personas everywhere; feasibility must survive *)
        let trusting =
          List.fold_left
            (fun s d ->
              match Spec.persona_of s d.Spec.via with
              | Some _ -> s
              | None -> Spec.with_persona ~trusted:d.Spec.via ~principal:d.Spec.right s)
            spec spec.Spec.deals
        in
        Reduce.feasible (Reduce.run (Sequencing.build trusting)))

let () =
  Alcotest.run "reduce"
    [
      ( "paper walkthroughs",
        [
          Alcotest.test_case "example 1 feasible" `Quick test_example1_feasible;
          Alcotest.test_case "example 1 deletion order" `Quick test_example1_deletion_walkthrough;
          Alcotest.test_case "red edge removed by rule 1" `Quick test_red_edge_removed_by_rule1;
          Alcotest.test_case "example 2 stuck at figure 6" `Quick test_example2_stuck_at_figure6;
          Alcotest.test_case "poor broker stuck" `Quick test_poor_broker_stuck;
          Alcotest.test_case "variant 1: source trusts broker" `Quick test_variant1_feasible;
          Alcotest.test_case "variant 2: broker trusts source" `Quick test_variant2_stuck;
          Alcotest.test_case "indemnity split enables example 2" `Quick
            test_split_makes_example2_feasible;
          Alcotest.test_case "figure 7 stuck" `Quick test_fig7_stuck;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "deletion log consistent" `Quick test_deletion_log_consistent;
          Alcotest.test_case "initial applicable set" `Quick test_applicable_initial;
          Alcotest.test_case "chains feasible" `Quick test_chains_feasible;
          Alcotest.test_case "fans infeasible" `Quick test_fans_infeasible;
          Alcotest.test_case "fan of one feasible" `Quick test_fan1_feasible;
          Alcotest.test_case "bundles feasible" `Quick test_bundles_feasible;
          Alcotest.test_case "worklist verdicts on scenarios" `Quick test_worklist_scenarios;
          Alcotest.test_case "worklist deletes everything" `Quick test_worklist_counts;
        ] );
      ( "shared-agent extension (para 9)",
        [
          Alcotest.test_case "rule 3 enables shared bundles" `Quick test_shared_agent_rule;
          Alcotest.test_case "no false positives on scenarios" `Quick
            test_shared_rule_no_false_positives;
          Alcotest.test_case "red conjunctions untouched" `Quick test_shared_rule_respects_reds;
          Alcotest.test_case "worklist replays the rescanning oracle" `Quick
            test_shared_worklist_replays_oracle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_confluence;
            prop_feasible_deletes_everything;
            prop_direct_trust_only_helps;
            prop_worklist_agrees;
          ] );
    ]
