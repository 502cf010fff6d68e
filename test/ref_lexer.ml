(* The reference lexer: the original char-by-char scanner of the DSL,
   kept verbatim in behaviour so the index-scanning {!Trust_lang.Lexer}
   can be compared against it. It allocates a location per byte and a
   buffer per token, and converts literals with [int_of_string], so an
   overlong integer literal raises [Failure] here (and an overlong
   money literal wraps) where the production lexer reports a located
   error. Tests only. *)

open Trust_lang

type cursor = { src : string; mutable pos : int; mutable loc : Loc.t }

let advance (pos : Loc.t) = function
  | '\n' -> { Loc.line = pos.Loc.line + 1; col = 1 }
  | _ -> { pos with Loc.col = pos.Loc.col + 1 }

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let bump cur =
  match peek cur with
  | None -> ()
  | Some c ->
    cur.pos <- cur.pos + 1;
    cur.loc <- advance cur.loc c

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '*'
let is_digit c = c >= '0' && c <= '9'

let take_while cur pred =
  let buf = Buffer.create 8 in
  let rec loop () =
    match peek cur with
    | Some c when pred c ->
      Buffer.add_char buf c;
      bump cur;
      loop ()
    | Some _ | None -> Buffer.contents buf
  in
  loop ()

exception Lex_error of Lexer.error

let fail loc fmt =
  Format.kasprintf (fun message -> raise (Lex_error { Lexer.message; loc })) fmt

let lex_string cur =
  let start = cur.loc in
  bump cur (* opening quote *);
  let buf = Buffer.create 8 in
  let rec loop () =
    match peek cur with
    | None -> fail start "unterminated string literal"
    | Some '"' ->
      bump cur;
      Buffer.contents buf
    | Some '\n' -> fail start "newline in string literal"
    | Some c ->
      Buffer.add_char buf c;
      bump cur;
      loop ()
  in
  loop ()

let lex_money cur =
  let start = cur.loc in
  bump cur (* $ *);
  let whole = take_while cur is_digit in
  if whole = "" then fail start "expected digits after '$'";
  let cents =
    match peek cur with
    | Some '.' ->
      bump cur;
      let frac = take_while cur is_digit in
      if String.length frac <> 2 then fail start "money needs exactly two decimal digits";
      (int_of_string whole * 100) + int_of_string frac
    | Some _ | None -> int_of_string whole * 100
  in
  Token.Money cents

let next_token cur =
  let rec skip () =
    match peek cur with
    | Some (' ' | '\t' | '\r' | '\n') ->
      bump cur;
      skip ()
    | Some '#' ->
      let rec to_eol () =
        match peek cur with
        | Some '\n' | None -> ()
        | Some _ ->
          bump cur;
          to_eol ()
      in
      to_eol ();
      skip ()
    | Some _ | None -> ()
  in
  skip ();
  let loc = cur.loc in
  match peek cur with
  | None -> Loc.at loc Token.Eof
  | Some ':' ->
    bump cur;
    Loc.at loc Token.Colon
  | Some ';' ->
    bump cur;
    Loc.at loc Token.Semicolon
  | Some '.' ->
    bump cur;
    Loc.at loc Token.Dot
  | Some '-' ->
    bump cur;
    (match peek cur with
    | Some '>' ->
      bump cur;
      Loc.at loc Token.Arrow
    | _ -> fail loc "expected '>' after '-'")
  | Some '"' -> Loc.at loc (Token.String (lex_string cur))
  | Some '$' -> Loc.at loc (lex_money cur)
  | Some c when is_digit c ->
    let digits = take_while cur is_digit in
    Loc.at loc (Token.Int (int_of_string digits))
  | Some c when is_ident_start c ->
    let word = take_while cur is_ident_char in
    let token = match Token.keyword word with Some kw -> kw | None -> Token.Ident word in
    Loc.at loc token
  | Some c -> fail loc "unexpected character %C" c

let tokenize src =
  let cur = { src; pos = 0; loc = Loc.start } in
  let rec loop acc =
    let tok = next_token cur in
    match tok.Loc.value with
    | Token.Eof -> List.rev (tok :: acc)
    | _ -> loop (tok :: acc)
  in
  match loop [] with tokens -> Ok tokens | exception Lex_error e -> Error e
