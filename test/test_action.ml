open Exchange

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let c = Party.consumer "c"
let p = Party.producer "p"
let t = Party.trusted "t"

let test_party_roles () =
  check "consumer principal" true (Party.is_principal c);
  check "trusted not principal" false (Party.is_principal t);
  check "trusted is trusted" true (Party.is_trusted t);
  Alcotest.(check (option bool)) "role of trusted" None
    (Option.map (fun _ -> true) (Party.role t));
  check "role of consumer" true (Party.role c = Some Party.Consumer)

let test_party_ordering () =
  check "principal before trusted" true (Party.compare c t < 0);
  check "same name different role differ" false
    (Party.equal (Party.consumer "x") (Party.broker "x"));
  check "equal" true (Party.equal c (Party.consumer "c"))

let test_give_pay () =
  check_str "give" "give[p -> c](doc(d))" (Action.to_string (Action.give p c "d"));
  check_str "pay" "pay[c -> p]($5)" (Action.to_string (Action.pay c p 500));
  check_str "notify" "notify[t -> c]" (Action.to_string (Action.notify ~agent:t ~informed:c))

(* [to_string] is built without a formatter and [pp] derives from it;
   both must keep the paper's notation for every action kind and money
   shape *)
let test_to_string_shapes () =
  let money = [ (0, "$0"); (1, "$0.01"); (99, "$0.99"); (100, "$1"); (250, "$2.50"); (100_000, "$1000") ] in
  List.iter
    (fun (m, text) ->
      check_str "pay" ("pay[c -> p](" ^ text ^ ")") (Action.to_string (Action.pay c p m));
      check_str "refund" ("pay⁻¹[c -> p](" ^ text ^ ")")
        (Action.to_string (Action.undo (Action.pay c p m))))
    money;
  let give = Action.give p c "d 1" in
  check_str "give" "give[p -> c](doc(d 1))" (Action.to_string give);
  check_str "return" "give⁻¹[p -> c](doc(d 1))" (Action.to_string (Action.undo give));
  check_str "pp agrees" (Action.to_string give) (Format.asprintf "%a" Action.pp give)

let test_undo () =
  let give = Action.give p c "d" in
  let undone = Action.undo give in
  check_str "inverse" "give⁻¹[p -> c](doc(d))" (Action.to_string undone);
  Alcotest.check_raises "double undo" (Invalid_argument "Action.undo: not a Do action")
    (fun () -> ignore (Action.undo undone))

let test_performer_beneficiary () =
  let give = Action.give p c "d" in
  check "giver performs" true (Party.equal (Action.performer give) p);
  check "receiver benefits" true (Party.equal (Action.beneficiary give) c);
  (* The undo is performed by the current holder, returning the item. *)
  let back = Action.undo give in
  check "holder performs undo" true (Party.equal (Action.performer back) c);
  check "original sender benefits" true (Party.equal (Action.beneficiary back) p);
  let note = Action.notify ~agent:t ~informed:c in
  check "agent notifies" true (Party.equal (Action.performer note) t);
  check "informed benefits" true (Party.equal (Action.beneficiary note) c)

let test_equal () =
  check "same give" true (Action.equal (Action.give p c "d") (Action.give p c "d"));
  check "different doc" false (Action.equal (Action.give p c "d") (Action.give p c "e"));
  check "do vs undo" false (Action.equal (Action.give p c "d") (Action.undo (Action.give p c "d")))

(* Patterns *)

module Pattern = Action.Pattern

let test_pattern_exact () =
  let give = Action.give p c "d" in
  check "of_action matches itself" true (Pattern.matches (Pattern.of_action give) give);
  check "rejects others" false (Pattern.matches (Pattern.of_action give) (Action.give p c "e"))

let test_pattern_wildcards () =
  let pat = Pattern.P_do (Pattern.Any_party, Pattern.Exactly c, Pattern.Any_document) in
  check "any source" true (Pattern.matches pat (Action.give p c "d"));
  check "any document" true (Pattern.matches pat (Action.give t c "zzz"));
  check "not money" false (Pattern.matches pat (Action.pay p c 100));
  check "wrong target" false (Pattern.matches pat (Action.give p t "d"))

let test_pattern_party_classes () =
  check "any_trusted accepts t" true (Pattern.party_matches Pattern.Any_trusted t);
  check "any_trusted rejects c" false (Pattern.party_matches Pattern.Any_trusted c);
  check "any_principal accepts c" true (Pattern.party_matches Pattern.Any_principal c);
  check "any_party accepts all" true
    (Pattern.party_matches Pattern.Any_party t && Pattern.party_matches Pattern.Any_party c)

let test_pattern_money_at_least () =
  let pat = Pattern.P_do (Pattern.Exactly t, Pattern.Exactly c, Pattern.Money_at_least 500) in
  check "enough" true (Pattern.matches pat (Action.pay t c 500));
  check "more" true (Pattern.matches pat (Action.pay t c 700));
  check "too little" false (Pattern.matches pat (Action.pay t c 499));
  check "document never" false (Pattern.matches pat (Action.give t c "d"))

let test_pattern_kinds_disjoint () =
  let give = Action.give p c "d" in
  let undo_pat = Pattern.P_undo (Pattern.Any_party, Pattern.Any_party, Pattern.Any_asset) in
  let notify_pat = Pattern.P_notify (Pattern.Any_party, Pattern.Any_party) in
  check "undo pattern rejects do" false (Pattern.matches undo_pat give);
  check "undo pattern accepts undo" true (Pattern.matches undo_pat (Action.undo give));
  check "notify pattern rejects transfer" false (Pattern.matches notify_pat give)

let prop_of_action_roundtrip =
  let gen_action =
    QCheck2.Gen.(
      let party = oneofl [ c; p; t; Party.broker "b" ] in
      let* source = party and* target = party in
      oneof
        [
          map (fun n -> Action.transfer source target (Asset.money (abs n mod 10_000))) int;
          return (Action.transfer source target (Asset.document "d"));
          return (Action.undo (Action.transfer source target (Asset.document "d")));
          return (Action.notify ~agent:source ~informed:target);
        ])
  in
  QCheck2.Test.make ~name:"of_action gives the exact-match pattern" ~count:300 gen_action
    (fun action -> Pattern.matches (Pattern.of_action action) action)

let () =
  Alcotest.run "action"
    [
      ( "party",
        [
          Alcotest.test_case "roles" `Quick test_party_roles;
          Alcotest.test_case "ordering" `Quick test_party_ordering;
        ] );
      ( "actions",
        [
          Alcotest.test_case "constructors print like the paper" `Quick test_give_pay;
          Alcotest.test_case "undo" `Quick test_undo;
          Alcotest.test_case "to_string shapes" `Quick test_to_string_shapes;
          Alcotest.test_case "performer and beneficiary" `Quick test_performer_beneficiary;
          Alcotest.test_case "equality" `Quick test_equal;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "exact patterns" `Quick test_pattern_exact;
          Alcotest.test_case "wildcards" `Quick test_pattern_wildcards;
          Alcotest.test_case "party classes" `Quick test_pattern_party_classes;
          Alcotest.test_case "money at least" `Quick test_pattern_money_at_least;
          Alcotest.test_case "action kinds disjoint" `Quick test_pattern_kinds_disjoint;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_of_action_roundtrip ]);
    ]
