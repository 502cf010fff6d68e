open Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let c = Party.consumer "c"
let b = Party.broker "b"
let p = Party.producer "p"
let t1 = Party.trusted "t1"
let t2 = Party.trusted "t2"

let sale = Spec.sale ~id:"cb" ~buyer:c ~seller:b ~via:t1 ~price:(Asset.dollars 10) ~good:"d"

let example1 = Workload.Scenarios.example1

let test_sale_shape () =
  check "buyer left" true (Party.equal sale.Spec.left c);
  check "seller right" true (Party.equal sale.Spec.right b);
  check "money" true (Asset.equal sale.Spec.left_sends (Asset.money 1000));
  check "doc" true (Asset.equal sale.Spec.right_sends (Asset.document "d"))

let expect_errors deals ~personas ~priorities =
  match Spec.make ~personas ~priorities deals with
  | Ok _ -> Alcotest.fail "expected validation failure"
  | Error errors -> errors

let test_validate_empty () =
  let errors = expect_errors [] ~personas:[] ~priorities:[] in
  check "no deals rejected" true (List.exists (fun e -> e = "spec has no deals") errors)

let test_validate_duplicate_ids () =
  let errors = expect_errors [ sale; sale ] ~personas:[] ~priorities:[] in
  check "duplicate ids" true
    (List.exists (fun e -> String.length e > 0 && String.sub e 0 9 = "duplicate") errors)

let test_validate_party_kinds () =
  let bogus = Spec.deal ~id:"x" ~left:t1 ~right:b ~via:t2 ~left_sends:(Asset.money 1) ~right_sends:(Asset.money 1) in
  let errors = expect_errors [ bogus ] ~personas:[] ~priorities:[] in
  check "left must be principal" true
    (List.exists (fun e -> e = "deal x: left party t1:trusted is not a principal") errors);
  let bogus2 = Spec.deal ~id:"y" ~left:c ~right:b ~via:p ~left_sends:(Asset.money 1) ~right_sends:(Asset.money 1) in
  let errors2 = expect_errors [ bogus2 ] ~personas:[] ~priorities:[] in
  check "via must be trusted" true
    (List.exists (fun e -> e = "deal y: via p:producer is not a trusted role") errors2)

let test_validate_self_deal () =
  let selfish = Spec.deal ~id:"z" ~left:c ~right:c ~via:t1 ~left_sends:(Asset.money 1) ~right_sends:(Asset.money 2) in
  let errors = expect_errors [ selfish ] ~personas:[] ~priorities:[] in
  check "self deal" true (List.exists (fun e -> e = "deal z: a party cannot exchange with itself") errors)

let test_validate_persona () =
  (* persona principal must be party to every deal the role mediates *)
  let errors = expect_errors [ sale ] ~personas:[ (t1, p) ] ~priorities:[] in
  check "stranger persona" true
    (List.exists (fun e -> e = "persona: p:producer plays t1:trusted but is not a principal of deal cb") errors);
  let errors2 = expect_errors [ sale ] ~personas:[ (t2, b) ] ~priorities:[] in
  check "unused trusted role" true
    (List.exists (fun e -> e = "persona: trusted role t2:trusted mediates no deal") errors2)

let test_validate_marks () =
  let dangling = { Spec.deal = "nope"; side = Spec.Left } in
  let errors = expect_errors [ sale ] ~personas:[] ~priorities:[ (c, dangling) ] in
  check "unknown deal" true (List.exists (fun e -> e = "priority: unknown deal \"nope\"") errors);
  let wrong_owner = { Spec.deal = "cb"; side = Spec.Left } in
  let errors2 = expect_errors [ sale ] ~personas:[] ~priorities:[ (p, wrong_owner) ] in
  check "non endpoint" true
    (List.exists
       (fun e -> e = "priority: p:producer is not an endpoint of commitment cb.left")
       errors2)

(* One malformed spec carrying every mark and persona error at once:
   the index-backed validator must report the reference's list, in the
   reference's order. *)
let test_validate_matches_reference () =
  let bp = Spec.sale ~id:"bp" ~buyer:b ~seller:p ~via:t2 ~price:(Asset.dollars 8) ~good:"d" in
  (* a second "cb", between other parties: marks must resolve to the first *)
  let shadow = Spec.sale ~id:"cb" ~buyer:p ~seller:c ~via:t2 ~price:(Asset.dollars 3) ~good:"e" in
  let deals = [ sale; bp; shadow ] in
  let personas = [ (t1, p); (Party.trusted "t9", c); (t2, b) ] in
  let priorities =
    [
      (c, { Spec.deal = "nope"; side = Spec.Left });
      (p, { Spec.deal = "cb"; side = Spec.Left });
      (b, { Spec.deal = "cb"; side = Spec.Right });
      (t1, { Spec.deal = "gone"; side = Spec.Right });
      (c, { Spec.deal = "bp"; side = Spec.Right });
    ]
  in
  let splits =
    [
      (c, { Spec.deal = "cb"; side = Spec.Right });
      (b, { Spec.deal = "missing"; side = Spec.Left });
      (t2, { Spec.deal = "bp"; side = Spec.Left });
      (p, { Spec.deal = "cb"; side = Spec.Left });
    ]
  in
  let expected =
    match Ref_spec.validate ~personas ~priorities ~splits deals with
    | Ok () -> Alcotest.fail "the reference must reject the malformed spec"
    | Error es -> es
  in
  check "the reference sees every kind of error" true (List.length expected >= 8);
  match Spec.make ~personas ~priorities ~splits deals with
  | Ok _ -> Alcotest.fail "expected validation failure"
  | Error errors -> Alcotest.(check (list string)) "same errors, same order" expected errors

(* The index-backed lookups against the list scans of [Ref_spec] on
   the scenarios, 200 printed random transactions (Universe samples of
   both profiles and a direct-trust density of 1.0) and the chain, fan
   and bundle generators up to 64 with an indemnity split applied. *)
let corpus () =
  let printed spec =
    match Trust_lang.Elaborate.from_string (Trust_lang.Printer.to_string spec) with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "printed spec does not elaborate: %s" e
  in
  let universe config n =
    let u = Workload.Universe.create { config with Workload.Universe.principals = 10_000 } in
    let rng = Workload.Prng.create 21L in
    List.init n (fun _ -> printed (Workload.Universe.sample u rng))
  in
  let dense =
    let rng = Workload.Prng.create 22L in
    let mix = { Workload.Gen.default_mix with Workload.Gen.trust_density = 1.0 } in
    List.init 60 (fun _ -> printed (Workload.Gen.random_transaction rng mix))
  in
  let sizes = [ 1; 2; 3; 5; 8; 16; 32; 64 ] in
  let generated =
    List.concat_map
      (fun k ->
        [
          Workload.Gen.chain ~brokers:k;
          Workload.Gen.fan ~prices:(List.init k (fun i -> Asset.dollars (10 + i)));
          Workload.Gen.bundle ~docs:k;
        ])
      sizes
  in
  let with_split spec =
    match Spec.internal_parties spec |> List.filter Party.is_principal with
    | owner :: _ -> (
      match Spec.linked_commitments_of spec owner with
      | cref :: _ -> [ Spec.with_split owner cref spec ]
      | [] -> [])
    | [] -> []
  in
  List.map snd Workload.Scenarios.all
  @ universe Workload.Universe.default_config 70
  @ universe Workload.Universe.defect_heavy 70
  @ dense @ generated
  @ List.concat_map with_split generated

let agrees_with_reference spec =
  let fail what = Alcotest.failf "%s differs from the reference on\n%a" what Spec.pp spec in
  let same what a b = if a <> b then fail what in
  same "commitments" (Ref_spec.commitments spec) (Spec.commitments spec);
  same "internal_parties" (Ref_spec.internal_parties spec) (Spec.internal_parties spec);
  let ids = "no such deal" :: List.map (fun d -> d.Spec.id) spec.Spec.deals in
  List.iter
    (fun id ->
      same "find_deal" (Ref_spec.find_deal spec id) (Spec.find_deal spec id);
      same "deal_index" (Ref_spec.deal_index spec id) (Spec.deal_index spec id))
    ids;
  let parties = Party.consumer "stranger" :: Spec.parties spec in
  let first = List.hd spec.Spec.deals in
  List.iter
    (fun party ->
      (* what the party trades, plus what it does not *)
      let assets =
        Asset.document "no such document" :: first.Spec.left_sends :: first.Spec.right_sends
        :: List.concat_map
             (fun cref ->
               match Ref_spec.find_deal spec cref.Spec.deal with
               | Some d -> [ d.Spec.left_sends; d.Spec.right_sends ]
               | None -> [])
             (Ref_spec.commitments_of spec party)
      in
      same "commitments_of" (Ref_spec.commitments_of spec party) (Spec.commitments_of spec party);
      same "linked_commitments_of"
        (Ref_spec.linked_commitments_of spec party)
        (Spec.linked_commitments_of spec party);
      same "single_transfer_bound"
        (Ref_spec.single_transfer_bound spec party)
        (Spec.single_transfer_bound spec party);
      same "endowment" (Ref_spec.endowment spec party) (Spec.endowment spec party);
      List.iter
        (fun asset -> same "price_for" (Ref_spec.price_for spec party asset) (Spec.price_for spec party asset))
        assets)
    parties;
  let marks = spec.Spec.priorities @ spec.Spec.splits in
  let everyone = List.hd (Spec.parties spec) in
  List.iter
    (fun ((cref : Spec.commitment_ref), d) ->
      same "endowed" (Ref_spec.endowed spec d cref.Spec.side) (Spec.endowed spec d cref.Spec.side);
      let marked = List.filter_map (fun (o, c) -> if c.Spec.deal = d.Spec.id then Some o else None) marks in
      List.iter
        (fun owner ->
          same "is_priority" (Ref_spec.is_priority spec owner cref) (Spec.is_priority spec owner cref);
          same "is_split" (Ref_spec.is_split spec owner cref) (Spec.is_split spec owner cref))
        (everyone :: d.Spec.via :: Spec.commitment_principal d cref.Spec.side :: marked))
    (Ref_spec.commitments spec);
  same "validate"
    (Ref_spec.validate
       ~personas:(Party.Map.bindings spec.Spec.personas)
       ~priorities:spec.Spec.priorities ~splits:spec.Spec.splits spec.Spec.deals)
    (Spec.validate spec)

let test_index_matches_reference () =
  let specs = corpus () in
  check "the corpus has every source" true (List.length specs > 250);
  List.iter agrees_with_reference specs

let test_commitments () =
  let refs = List.map fst (Spec.commitments example1) in
  check_int "two deals, four commitments" 4 (List.length refs);
  check "first is bp.left" true
    (Spec.equal_ref (List.hd refs) { Spec.deal = "bp"; side = Spec.Left })

let test_commitment_accessors () =
  check "principal of left" true (Party.equal (Spec.commitment_principal sale Spec.Left) c);
  check "sends money" true (Asset.equal (Spec.commitment_sends sale Spec.Left) (Asset.money 1000));
  check "expects doc" true
    (Asset.equal (Spec.commitment_expects sale Spec.Left) (Asset.document "d"));
  check "other side" true (Spec.other_side Spec.Left = Spec.Right)

let test_parties () =
  Alcotest.(check (list string)) "principals in order" [ "b"; "p"; "c" ]
    (List.map Party.name (Spec.principals example1));
  Alcotest.(check (list string)) "trusted" [ "t2"; "t1" ]
    (List.map Party.name (Spec.trusted_agents example1))

let test_internal_parties () =
  Alcotest.(check (list string)) "conjunction owners" [ "b"; "t2"; "t1" ]
    (List.map Party.name (Spec.internal_parties example1))

let test_commitments_of () =
  check_int "broker has two edges" 2 (List.length (Spec.commitments_of example1 b));
  check_int "consumer has one" 1 (List.length (Spec.commitments_of example1 c));
  check_int "t1 has two" 2 (List.length (Spec.commitments_of example1 t1))

let test_personas () =
  let spec = Workload.Scenarios.simple_sale_direct in
  let t = Party.trusted "t" in
  check "persona recorded" true (Spec.persona_of spec t = Some (Party.producer "p"));
  let d = List.hd spec.Spec.deals in
  check "effective agent is persona" true (Party.equal (Spec.effective_agent spec d) (Party.producer "p"));
  check "seller side plays own agent" true
    (Spec.plays_own_agent spec { Spec.deal = "cp"; side = Spec.Right });
  check "buyer side does not" false
    (Spec.plays_own_agent spec { Spec.deal = "cp"; side = Spec.Left })

let test_priority_marks () =
  let sale_side = { Spec.deal = "cb"; side = Spec.Right } in
  check "red recorded" true (Spec.is_priority example1 b sale_side);
  check "not red for t1" false (Spec.is_priority example1 t1 sale_side)

let test_splits () =
  let spec = Workload.Scenarios.example2 in
  let cref = Workload.Scenarios.example2_sale_ref 1 in
  let owner = Workload.Scenarios.example2_consumer in
  let split = Spec.with_split owner cref spec in
  check "split recorded" true (Spec.is_split split owner cref);
  check_int "linked excludes split" 1 (List.length (Spec.linked_commitments_of split owner));
  (* idempotent *)
  let again = Spec.with_split owner cref split in
  check_int "no duplicate" (List.length split.Spec.splits) (List.length again.Spec.splits)

let test_cost_to () =
  let spec = Workload.Scenarios.fig7 in
  let owner = Workload.Scenarios.fig7_consumer in
  check_int "doc1 costs $10" (Asset.dollars 10)
    (Spec.cost_to spec owner (Workload.Scenarios.fig7_sale_ref 1));
  check_int "seller side costs 0" 0
    (Spec.cost_to spec (Party.broker "b1") (Workload.Scenarios.fig7_sale_ref 1))

let test_indemnity_amount () =
  (* Fig. 7: $50 / $40 / $30 for the $10 / $20 / $30 documents. *)
  let spec = Workload.Scenarios.fig7 in
  let owner = Workload.Scenarios.fig7_consumer in
  let amount i = Spec.indemnity_amount spec owner (Workload.Scenarios.fig7_sale_ref i) in
  check_int "piece 1" (Asset.dollars 50) (amount 1);
  check_int "piece 2" (Asset.dollars 40) (amount 2);
  check_int "piece 3" (Asset.dollars 30) (amount 3)

let test_indemnity_amount_order_independent () =
  (* The amount is computed over the original conjunction, so it does not
     change after other pieces are split. *)
  let spec = Workload.Scenarios.fig7 in
  let owner = Workload.Scenarios.fig7_consumer in
  let split = Spec.with_split owner (Workload.Scenarios.fig7_sale_ref 3) spec in
  check_int "piece 2 amount unchanged" (Asset.dollars 40)
    (Spec.indemnity_amount split owner (Workload.Scenarios.fig7_sale_ref 2))

let test_with_priority () =
  let spec = Workload.Scenarios.example1 in
  let cref = { Spec.deal = "bp"; side = Spec.Left } in
  let spec' = Spec.with_priority b cref spec in
  check "added" true (Spec.is_priority spec' b cref);
  check_int "idempotent" (List.length spec'.Spec.priorities)
    (List.length (Spec.with_priority b cref spec').Spec.priorities)

let test_all_scenarios_validate () =
  List.iter
    (fun (name, spec) ->
      match Spec.validate spec with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es))
    Workload.Scenarios.all

let () =
  Alcotest.run "spec"
    [
      ( "validation",
        [
          Alcotest.test_case "sale constructor" `Quick test_sale_shape;
          Alcotest.test_case "empty spec" `Quick test_validate_empty;
          Alcotest.test_case "duplicate ids" `Quick test_validate_duplicate_ids;
          Alcotest.test_case "party kinds" `Quick test_validate_party_kinds;
          Alcotest.test_case "self deal" `Quick test_validate_self_deal;
          Alcotest.test_case "persona constraints" `Quick test_validate_persona;
          Alcotest.test_case "marks reference endpoints" `Quick test_validate_marks;
          Alcotest.test_case "all scenarios validate" `Quick test_all_scenarios_validate;
          Alcotest.test_case "errors match the reference" `Quick test_validate_matches_reference;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "commitments enumerate edges" `Quick test_commitments;
          Alcotest.test_case "commitment accessors" `Quick test_commitment_accessors;
          Alcotest.test_case "parties" `Quick test_parties;
          Alcotest.test_case "internal parties" `Quick test_internal_parties;
          Alcotest.test_case "commitments_of" `Quick test_commitments_of;
          Alcotest.test_case "personas" `Quick test_personas;
          Alcotest.test_case "priority marks" `Quick test_priority_marks;
          Alcotest.test_case "splits" `Quick test_splits;
          Alcotest.test_case "with_priority" `Quick test_with_priority;
          Alcotest.test_case "index matches the reference" `Quick test_index_matches_reference;
        ] );
      ( "indemnity arithmetic (paper 6)",
        [
          Alcotest.test_case "cost_to" `Quick test_cost_to;
          Alcotest.test_case "fig7 amounts" `Quick test_indemnity_amount;
          Alcotest.test_case "order independence" `Quick test_indemnity_amount_order_independent;
        ] );
    ]
