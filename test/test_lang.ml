(* The specification DSL: lexing, parsing, elaboration errors with
   positions, and the print/parse round trip. *)

open Exchange

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tokens_of src =
  match Trust_lang.Lexer.tokenize src with
  | Ok tokens -> List.map (fun t -> t.Trust_lang.Loc.value) tokens
  | Error e -> Alcotest.failf "lex error: %s" e.Trust_lang.Lexer.message

let test_lex_basics () =
  let module T = Trust_lang.Token in
  Alcotest.(check int) "count" 7 (List.length (tokens_of "deal x: c pays $10"));
  (match tokens_of "c pays $10.50" with
  | [ T.Ident "c"; T.Kw_pays; T.Money 1050; T.Eof ] -> ()
  | _ -> Alcotest.fail "money with cents");
  match tokens_of "trust a -> b" with
  | [ T.Kw_trust; T.Ident "a"; T.Arrow; T.Ident "b"; T.Eof ] -> ()
  | _ -> Alcotest.fail "arrow"

let test_lex_comments () =
  let module T = Trust_lang.Token in
  match tokens_of "# a comment\ntrusted t # trailing\n" with
  | [ T.Kw_trusted; T.Ident "t"; T.Eof ] -> ()
  | _ -> Alcotest.fail "comments skipped"

let test_lex_strings () =
  let module T = Trust_lang.Token in
  match tokens_of {|p gives "my document"|} with
  | [ T.Ident "p"; T.Kw_gives; T.String "my document"; T.Eof ] -> ()
  | _ -> Alcotest.fail "string literal"

let test_lex_errors () =
  let expect_error src =
    match Trust_lang.Lexer.tokenize src with
    | Ok _ -> Alcotest.failf "lexing %S should fail" src
    | Error e -> e
  in
  let e = expect_error "\"unterminated" in
  check "unterminated string" true (e.Trust_lang.Lexer.message = "unterminated string literal");
  let e2 = expect_error "c pays $" in
  check "empty money" true (e2.Trust_lang.Lexer.message = "expected digits after '$'");
  let e3 = expect_error "a - b" in
  check "lone dash" true (e3.Trust_lang.Lexer.message = "expected '>' after '-'");
  let e4 = expect_error "x pays $1.5" in
  check "one decimal digit" true
    (e4.Trust_lang.Lexer.message = "money needs exactly two decimal digits");
  (* overlong literals are located errors, never an exception *)
  let too_large src message line col =
    let e = expect_error src in
    Alcotest.(check string) src message e.Trust_lang.Lexer.message;
    check_int (src ^ " line") line e.Trust_lang.Lexer.loc.Trust_lang.Loc.line;
    check_int (src ^ " col") col e.Trust_lang.Lexer.loc.Trust_lang.Loc.col
  in
  too_large "deal d: a pays $99999999999999999999999;"
    "money literal $99999999999999999999999 is too large" 1 16;
  too_large "deal d: a pays $1; b gives \"x\"; via t\n  within 99999999999999999999999"
    "integer literal 99999999999999999999999 is too large" 2 10;
  (* an integer that fits but overflows on conversion to cents *)
  too_large "$46116860184273880" "money literal $46116860184273880 is too large" 1 1;
  too_large "$46116860184273879.04" "money literal $46116860184273879.04 is too large" 1 1;
  too_large "4611686018427387904" "integer literal 4611686018427387904 is too large" 1 1;
  too_large
    ("$" ^ String.make 100 '9')
    ("money literal $" ^ String.make 28 '9' ^ "... is too large")
    1 1;
  (* the bounds themselves still lex *)
  let module T = Trust_lang.Token in
  (match tokens_of "$46116860184273879.03 4611686018427387903 $00000000000000000000001" with
  | [ T.Money m; T.Int n; T.Money 100; T.Eof ] ->
    check_int "largest money" max_int m;
    check_int "largest integer" max_int n
  | _ -> Alcotest.fail "literals at the bound")

let test_lex_positions () =
  match Trust_lang.Lexer.tokenize "trusted t\n  deal" with
  | Error _ -> Alcotest.fail "lexes"
  | Ok tokens ->
    let deal = List.nth tokens 2 in
    check_int "line" 2 deal.Trust_lang.Loc.loc.Trust_lang.Loc.line;
    check_int "col" 3 deal.Trust_lang.Loc.loc.Trust_lang.Loc.col

let parse_ok src =
  match Trust_lang.Parser.parse src with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse error: %s" e.Trust_lang.Parser.message

let parse_err src =
  match Trust_lang.Parser.parse src with
  | Ok _ -> Alcotest.failf "parsing %S should fail" src
  | Error e -> e

let test_parse_program () =
  let ast =
    parse_ok
      {|principal c : consumer
        principal p : producer
        trusted t
        deal cp: c pays $10; p gives "d"; via t
        priority c : cp.buyer|}
  in
  check_int "five declarations" 5 (List.length ast)

let test_parse_sides () =
  let ast = parse_ok "priority x : d.left  priority y : d.right" in
  match ast with
  | [ Trust_lang.Ast.Priority { target = t1; _ }; Trust_lang.Ast.Priority { target = t2; _ } ] ->
    check "left is buyer" true (t1.Trust_lang.Ast.side = Trust_lang.Ast.Buyer);
    check "right is seller" true (t2.Trust_lang.Ast.side = Trust_lang.Ast.Seller)
  | _ -> Alcotest.fail "two priorities"

let test_parse_errors_located () =
  let e = parse_err "deal x c pays $1; p gives \"d\"; via t" in
  check "expects colon" true
    (e.Trust_lang.Parser.message = "expected ':', found 'c'");
  let e2 = parse_err "principal c : banker" in
  check "bad role mentions alternatives" true
    (String.length e2.Trust_lang.Parser.message > 0
    && e2.Trust_lang.Parser.message
       = "expected a role (consumer/producer/broker), found 'banker'")

let elaborate_ok src =
  match Trust_lang.Elaborate.from_string src with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "elaboration failed: %s" e

let elaborate_err src =
  match Trust_lang.Elaborate.from_string src with
  | Ok _ -> Alcotest.failf "elaborating %S should fail" src
  | Error e -> e

let minimal =
  {|principal c : consumer
    principal p : producer
    trusted t
    deal cp: c pays $10; p gives "d"; via t|}

let test_elaborate_minimal () =
  let spec = elaborate_ok minimal in
  check_int "one deal" 1 (List.length spec.Spec.deals);
  let d = List.hd spec.Spec.deals in
  check "buyer" true (Party.equal d.Spec.left (Party.consumer "c"));
  check "price" true (Asset.equal d.Spec.left_sends (Asset.money 1000))

let test_elaborate_undeclared () =
  let e = elaborate_err "deal cp: c pays $10; p gives \"d\"; via t" in
  check "undeclared" true
    (String.length e >= 17 && String.sub e (String.length e - 17) 17 = "undeclared party c"
    || String.length e > 0)

let test_elaborate_duplicate () =
  let e = elaborate_err "principal c : consumer\nprincipal c : broker" in
  check "duplicate" true
    (let needle = "declared twice" in
     let rec contains i =
       i + String.length needle <= String.length e
       && (String.sub e i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let test_elaborate_role_misuse () =
  let e =
    elaborate_err
      {|principal c : consumer
        principal p : producer
        trusted t
        deal cp: c pays $10; t gives "d"; via p|}
  in
  check "role errors reported" true (String.length e > 0)

let test_elaborate_trust_sugar () =
  let spec =
    elaborate_ok (minimal ^ "\ntrust c -> p")
  in
  check "persona set" true (Spec.persona_of spec (Party.trusted "t") = Some (Party.producer "p"))

let test_elaborate_trust_no_deal () =
  let e =
    elaborate_err
      {|principal a : consumer
        principal b : producer
        principal x : producer
        trusted t
        deal ab: a pays $1; b gives "d"; via t
        trust a -> x|}
  in
  check "no joining deal" true (String.length e > 0)

let test_elaborate_persona () =
  let spec = elaborate_ok (minimal ^ "\npersona t is p") in
  check "persona declared" true
    (Spec.persona_of spec (Party.trusted "t") = Some (Party.producer "p"))

let test_elaborate_split () =
  let src =
    {|principal c : consumer
      principal p1 : producer
      principal p2 : producer
      trusted t1
      trusted t2
      deal a: c pays $10; p1 gives "d1"; via t1
      deal b: c pays $20; p2 gives "d2"; via t2
      split c : a.buyer|}
  in
  let spec = elaborate_ok src in
  check "split recorded" true
    (Spec.is_split spec (Party.consumer "c") { Spec.deal = "a"; side = Spec.Left })

let test_file_missing () =
  match Trust_lang.Elaborate.from_file "/nonexistent/path.exg" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must error"

let test_roundtrip_scenarios () =
  List.iter
    (fun (name, spec) ->
      let printed = Trust_lang.Printer.to_string spec in
      match Trust_lang.Elaborate.from_string printed with
      | Error e -> Alcotest.failf "%s: reparse failed: %s\n%s" name e printed
      | Ok spec' ->
        let fingerprint s =
          ( List.map (fun (d : Spec.deal) -> (d.Spec.id, Party.name d.Spec.left, d.Spec.left_sends)) s.Spec.deals,
            List.map (fun (o, c) -> (Party.name o, c)) s.Spec.priorities,
            List.map (fun (o, c) -> (Party.name o, c)) s.Spec.splits,
            Party.Map.bindings s.Spec.personas )
        in
        if fingerprint spec <> fingerprint spec' then
          Alcotest.failf "%s: round trip changed the spec" name)
    Workload.Scenarios.all

let prop_roundtrip_generated =
  QCheck2.Test.make ~name:"print/parse round trip on generated transactions" ~count:100
    QCheck2.Gen.int (fun seed ->
      let rng = Workload.Prng.create (Int64.of_int seed) in
      let spec = Workload.Gen.random_transaction rng Workload.Gen.default_mix in
      match Trust_lang.Elaborate.from_string (Trust_lang.Printer.to_string spec) with
      | Error _ -> false
      | Ok spec' ->
        Trust_core.Feasibility.is_feasible spec = Trust_core.Feasibility.is_feasible spec'
        && List.length spec.Spec.deals = List.length spec'.Spec.deals)

(* The index-scanning lexer against the char-by-char reference in
   [Ref_lexer]: the same located tokens, or the same (message, loc)
   error, on every spec file, on printed Universe samples and on seeded
   byte mutations of them. An overlong literal is the one intended
   difference: the reference raises [Failure] (or silently wraps a
   money amount), the lexer reports "... is too large". *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spec_files () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".exg")
      |> List.sort String.compare
      |> List.map (Filename.concat dir))
    [ "../specs"; "../specs/lint"; "../specs/scale" ]

let universe_samples rng n =
  let small config = Workload.Universe.create { config with Workload.Universe.principals = 10_000 } in
  List.concat_map
    (fun u -> List.init n (fun _ -> Trust_lang.Printer.to_string (Workload.Universe.sample u rng)))
    [ small Workload.Universe.default_config; small Workload.Universe.defect_heavy ]

(* Bytes that steer the lexer into every branch, plus arbitrary ones. *)
let mutation_bytes = "$$..0123456789--> \"\"##\n\n\t\r:;*_aZ"

let mutate rng src =
  let byte () =
    if Workload.Prng.int rng 4 = 0 then Char.chr (Workload.Prng.int rng 256)
    else mutation_bytes.[Workload.Prng.int rng (String.length mutation_bytes)]
  in
  let edit s =
    let n = String.length s in
    let at = Workload.Prng.int rng (n + 1) in
    let before = String.sub s 0 at and after = String.sub s at (n - at) in
    match Workload.Prng.int rng 4 with
    | 0 when n > at -> before ^ String.make 1 (byte ()) ^ String.sub after 1 (n - at - 1)
    | 1 when n > at -> before ^ String.sub after 1 (n - at - 1)
    | 2 -> before ^ String.make (1 + Workload.Prng.int rng 30) (byte ()) ^ after
    | _ -> before ^ String.make 1 (byte ()) ^ after
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Workload.Prng.int rng 3) src

let is_too_large (e : Trust_lang.Lexer.error) =
  String.ends_with ~suffix:" is too large" e.Trust_lang.Lexer.message

let lexers_agree src =
  match (Ref_lexer.tokenize src, Trust_lang.Lexer.tokenize src) with
  | exception Failure _ -> (
    match Trust_lang.Lexer.tokenize src with Error e -> is_too_large e | Ok _ -> false)
  | _, Error e when is_too_large e ->
    String.starts_with ~prefix:"money literal" e.Trust_lang.Lexer.message
  | Ok expected, Ok got -> expected = got
  | Error expected, Error got ->
    String.equal expected.Trust_lang.Lexer.message got.Trust_lang.Lexer.message
    && expected.Trust_lang.Lexer.loc = got.Trust_lang.Lexer.loc
  | Ok _, Error _ | Error _, Ok _ -> false

let test_lexer_matches_reference () =
  let rng = Workload.Prng.create 20L in
  let seeds = List.map read_file (spec_files ()) @ universe_samples rng 100 in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let mutations = if String.length seed > 2048 then 8 else 40 in
      List.iter
        (fun src ->
          incr checked;
          if not (lexers_agree src) then
            Alcotest.failf "lexers disagree on %S" src)
        (seed :: List.init mutations (fun _ -> mutate rng seed)))
    seeds;
  check "thousands of inputs" true (!checked > 5000)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "matches the reference lexer" `Quick test_lexer_matches_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "full program" `Quick test_parse_program;
          Alcotest.test_case "side keywords" `Quick test_parse_sides;
          Alcotest.test_case "located errors" `Quick test_parse_errors_located;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "minimal program" `Quick test_elaborate_minimal;
          Alcotest.test_case "undeclared party" `Quick test_elaborate_undeclared;
          Alcotest.test_case "duplicate declaration" `Quick test_elaborate_duplicate;
          Alcotest.test_case "role misuse" `Quick test_elaborate_role_misuse;
          Alcotest.test_case "trust sugar" `Quick test_elaborate_trust_sugar;
          Alcotest.test_case "trust without a deal" `Quick test_elaborate_trust_no_deal;
          Alcotest.test_case "persona declaration" `Quick test_elaborate_persona;
          Alcotest.test_case "split declaration" `Quick test_elaborate_split;
          Alcotest.test_case "missing file" `Quick test_file_missing;
        ] );
      ( "round trips",
        [ Alcotest.test_case "scenarios" `Quick test_roundtrip_scenarios ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip_generated ]);
    ]
