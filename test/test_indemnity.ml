(* Indemnities (§6): Fig. 7's $90 vs $70 orderings, greedy optimality,
   deposits and splits. *)

open Exchange
module Indemnity = Trust_core.Indemnity

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig7 = Workload.Scenarios.fig7
let owner = Workload.Scenarios.fig7_consumer

let test_fig7_greedy_total () =
  let plan = Indemnity.plan_greedy fig7 ~owner in
  check_int "order #2 totals $70" (Asset.dollars 70) plan.Indemnity.total;
  check_int "two offers" 2 (List.length plan.Indemnity.offers)

let test_fig7_greedy_order () =
  (* Broker #3 first ($30 aside), then Broker #2 ($40); Broker #1 last,
     uncovered. *)
  let plan = Indemnity.plan_greedy fig7 ~owner in
  match plan.Indemnity.offers with
  | [ first; second ] ->
    check "b3 offers first" true (Party.equal first.Indemnity.offered_by (Party.broker "b3"));
    check_int "sets $30 aside" (Asset.dollars 30) first.Indemnity.amount;
    check "b2 next" true (Party.equal second.Indemnity.offered_by (Party.broker "b2"));
    check_int "sets $40 aside" (Asset.dollars 40) second.Indemnity.amount
  | _ -> Alcotest.fail "expected two offers"

let test_fig7_worst_total () =
  let plan = Indemnity.plan_worst fig7 ~owner in
  check_int "order #1 totals $90" (Asset.dollars 90) plan.Indemnity.total

let test_fig7_exhaustive () =
  check_int "greedy is optimal" (Asset.dollars 70) (Indemnity.exhaustive_minimum fig7 ~owner)

let test_offer_routing () =
  (* The offer is escrowed with the intermediary of the covered deal. *)
  let offer = Indemnity.offer_for fig7 ~owner (Workload.Scenarios.fig7_sale_ref 1) in
  check "deposited with t1" true (Party.equal offer.Indemnity.via (Party.trusted "t1"));
  check "offered by the seller" true (Party.equal offer.Indemnity.offered_by (Party.broker "b1"));
  check_int "amount covers the others" (Asset.dollars 50) offer.Indemnity.amount

let test_plan_for_order_validation () =
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Indemnity.plan_for_order: not a permutation of the owner's pieces")
    (fun () ->
      ignore (Indemnity.plan_for_order fig7 ~owner [ Workload.Scenarios.fig7_sale_ref 1 ]))

let test_single_piece_no_offers () =
  let spec = Workload.Scenarios.simple_sale in
  let plan = Indemnity.plan_greedy spec ~owner:(Party.consumer "c") in
  check_int "no offers for a single piece" 0 (List.length plan.Indemnity.offers);
  check_int "zero total" 0 plan.Indemnity.total

let test_splittable () =
  check "fig7 consumer splittable" true (Indemnity.splittable fig7 ~owner);
  (* broker conjunctions carry a red edge: not splittable (§6: type-2 only) *)
  check "broker not splittable" false (Indemnity.splittable fig7 ~owner:(Party.broker "b1"));
  check "producer not splittable" false
    (Indemnity.splittable fig7 ~owner:(Party.producer "s1"));
  check "trusted not splittable" false (Indemnity.splittable fig7 ~owner:(Party.trusted "t1"))

let test_apply_enables () =
  let plan = Indemnity.plan_greedy fig7 ~owner in
  let split = Indemnity.apply plan fig7 in
  check "split spec feasible" true (Trust_core.Feasibility.is_feasible split);
  check "original still infeasible" false (Trust_core.Feasibility.is_feasible fig7)

let test_deposits_refunds () =
  let plan = Indemnity.plan_greedy fig7 ~owner in
  let deposits = Indemnity.deposits plan and refunds = Indemnity.refunds plan in
  check_int "one deposit per offer" 2 (List.length deposits);
  check_int "one refund per offer" 2 (List.length refunds);
  List.iter2
    (fun d r ->
      match (d, r) with
      | Action.Do tr, Action.Undo tr' -> check "refund mirrors deposit" true (tr = tr')
      | _ -> Alcotest.fail "deposit/refund shapes")
    deposits refunds

let test_rescued_run () =
  let plan = Indemnity.plan_greedy fig7 ~owner in
  check_int "rescue totals $70" (Asset.dollars 70) plan.Indemnity.total;
  let analysis = Trust_core.Feasibility.analyze (Indemnity.apply plan fig7) in
  match analysis.Trust_core.Feasibility.sequence with
  | None -> Alcotest.fail "fig7 rescue must succeed"
  | Some seq -> check "sequence physical" true (Trust_core.Execution.check_physical seq = Ok ())

let test_example2_single_indemnity () =
  (* §6's narrative choice: Broker #1 escrows the price of document #2
     ($20) to split piece 1. *)
  let spec = Workload.Scenarios.example2 in
  let owner = Workload.Scenarios.example2_consumer in
  let paper_order = [ Workload.Scenarios.example2_sale_ref 1; Workload.Scenarios.example2_sale_ref 2 ] in
  let paper_plan = Indemnity.plan_for_order spec ~owner paper_order in
  check_int "one offer" 1 (List.length paper_plan.Indemnity.offers);
  check_int "the price of the other document" (Asset.dollars 20) paper_plan.Indemnity.total;
  check "b1 offers it" true
    (Party.equal (List.hd paper_plan.Indemnity.offers).Indemnity.offered_by (Party.broker "b1"));
  check "feasible after" true
    (Trust_core.Feasibility.is_feasible (Indemnity.apply paper_plan spec));
  (* The greedy minimum is even cheaper: cover the $20 piece with the $10
     price of the other document. *)
  let greedy = Indemnity.plan_greedy spec ~owner in
  check_int "greedy pays only $10" (Asset.dollars 10) greedy.Indemnity.total;
  check "greedy also rescues" true
    (Trust_core.Feasibility.is_feasible (Indemnity.apply greedy spec))

(* greedy = (k-2) * S + min over the general fan *)

let prop_greedy_optimal =
  QCheck2.Test.make ~name:"greedy ordering minimises the total indemnity" ~count:60
    QCheck2.Gen.(list_size (int_range 2 5) (int_range 1 50))
    (fun prices ->
      let prices = List.map Asset.dollars prices in
      let spec = Workload.Gen.fan ~prices in
      let owner = Workload.Gen.fan_consumer in
      let greedy = (Indemnity.plan_greedy spec ~owner).Indemnity.total in
      greedy = Indemnity.exhaustive_minimum spec ~owner)

let prop_greedy_formula =
  QCheck2.Test.make ~name:"greedy total equals (k-2) * S + min price" ~count:60
    QCheck2.Gen.(list_size (int_range 2 6) (int_range 1 50))
    (fun dollar_prices ->
      let prices = List.map Asset.dollars dollar_prices in
      let spec = Workload.Gen.fan ~prices in
      let owner = Workload.Gen.fan_consumer in
      let s = List.fold_left ( + ) 0 prices in
      let k = List.length prices in
      let expected = ((k - 2) * s) + List.fold_left min max_int prices in
      (Indemnity.plan_greedy spec ~owner).Indemnity.total = expected)

let prop_apply_fan_feasible =
  QCheck2.Test.make ~name:"greedy splits always rescue a fan" ~count:60
    QCheck2.Gen.(list_size (int_range 2 6) (int_range 1 50))
    (fun dollar_prices ->
      let prices = List.map Asset.dollars dollar_prices in
      let spec = Workload.Gen.fan ~prices in
      let plan = Indemnity.plan_greedy spec ~owner:Workload.Gen.fan_consumer in
      Trust_core.Feasibility.is_feasible (Indemnity.apply plan spec))

(* [apply] records a whole plan in one spec construction; the result
   must be the spec the one-split-at-a-time fold builds, down to its
   shape. Plans: each splittable owner's greedy plan, every linked
   piece of every principal at once, and, up to 64 offers, either one
   repeated (repeats and already-recorded splits are skipped) or
   applied again. *)
let test_apply_one_construction () =
  let fold plan spec =
    List.fold_left
      (fun spec o -> Spec.with_split o.Indemnity.owner o.Indemnity.piece spec)
      spec plan.Indemnity.offers
  in
  let sizes = [ 2; 3; 8; 32; 256 ] in
  let specs =
    Workload.Scenarios.all
    @ List.concat_map
        (fun n ->
          [
            ( Printf.sprintf "fan %d" n,
              Workload.Gen.fan ~prices:(List.init n (fun i -> Asset.dollars (1 + (i * 7 mod 50))))
            );
            (Printf.sprintf "bundle %d" n, Workload.Gen.bundle ~docs:n);
            (Printf.sprintf "chain %d" n, Workload.Gen.chain ~brokers:n);
          ])
        sizes
  in
  let plan_of offers = { Indemnity.offers; total = 0 } in
  let compared = ref 0 in
  List.iter
    (fun (name, spec) ->
      let every_piece =
        List.concat_map
          (fun owner ->
            List.map (Indemnity.offer_for spec ~owner) (Indemnity.linked_pieces spec ~owner))
          (Spec.principals spec)
      in
      let greedy =
        List.filter_map
          (fun owner ->
            if Indemnity.splittable spec ~owner then
              Some (Party.name owner, Indemnity.plan_greedy spec ~owner)
            else None)
          (Spec.principals spec)
      in
      List.iter
        (fun (what, plan) ->
          if plan.Indemnity.offers <> [] then begin
            let here = Printf.sprintf "%s, %s" name what in
            let same label want got =
              Alcotest.(check string) (here ^ label ^ ": shape key") (Spec.shape_key want)
                (Spec.shape_key got);
              check (here ^ label ^ ": shape hash") true
                (Int64.equal (Spec.shape_hash want) (Spec.shape_hash got));
              check (here ^ label ^ ": splits in order") true (want.Spec.splits = got.Spec.splits)
            in
            let want = fold plan spec and got = Indemnity.apply plan spec in
            same "" want got;
            (* the fold is quadratic: the skip cases on the smaller plans *)
            if List.length plan.Indemnity.offers <= 64 then begin
              same " applied again" (fold plan want) (Indemnity.apply plan got);
              let twice = plan_of (plan.Indemnity.offers @ List.rev plan.Indemnity.offers) in
              same " repeated" (fold twice spec) (Indemnity.apply twice spec)
            end;
            incr compared
          end)
        (("every piece", plan_of every_piece) :: greedy))
    specs;
  check "every family compared" true (!compared >= List.length specs)

let () =
  Alcotest.run "indemnity"
    [
      ( "figure 7",
        [
          Alcotest.test_case "greedy total $70" `Quick test_fig7_greedy_total;
          Alcotest.test_case "greedy order matches order #2" `Quick test_fig7_greedy_order;
          Alcotest.test_case "worst ordering $90" `Quick test_fig7_worst_total;
          Alcotest.test_case "exhaustive agrees" `Quick test_fig7_exhaustive;
          Alcotest.test_case "offer routing" `Quick test_offer_routing;
        ] );
      ( "planning",
        [
          Alcotest.test_case "order validation" `Quick test_plan_for_order_validation;
          Alcotest.test_case "single piece" `Quick test_single_piece_no_offers;
          Alcotest.test_case "splittable conjunctions" `Quick test_splittable;
          Alcotest.test_case "apply enables the exchange" `Quick test_apply_enables;
          Alcotest.test_case "deposits and refunds" `Quick test_deposits_refunds;
          Alcotest.test_case "rescued run" `Quick test_rescued_run;
          Alcotest.test_case "example 2 single indemnity" `Quick test_example2_single_indemnity;
          Alcotest.test_case "apply = the with_split fold" `Quick test_apply_one_construction;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_greedy_optimal; prop_greedy_formula; prop_apply_fan_feasible ] );
    ]
