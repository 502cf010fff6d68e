type error = { message : string; loc : Loc.t }

let pp_error ppf e = Format.fprintf ppf "%a: %s" Loc.pp e.loc e.message

(* The scan works by index over [src]. A location is built only where a
   token or an error needs one: the column is the byte offset from the
   start of the current line, which the whitespace skip keeps up to
   date (newlines occur nowhere else outside comments). *)
type cursor = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the current line's first byte *)
}

let here cur = { Loc.line = cur.line; col = cur.pos - cur.bol + 1 }

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '*'
let is_digit c = c >= '0' && c <= '9'

(* Advance past the longest run from [cur.pos] whose bytes satisfy [pred]. *)
let skip_while cur pred =
  while cur.pos < cur.len && pred (String.unsafe_get cur.src cur.pos) do
    cur.pos <- cur.pos + 1
  done

exception Lex_error of error

let fail loc fmt = Format.kasprintf (fun message -> raise (Lex_error { message; loc })) fmt

(* A literal in an overflow message is cut short: the whole run may be
   most of a frame. *)
let shown lexeme =
  if String.length lexeme <= 32 then lexeme else String.sub lexeme 0 29 ^ "..."

(* The decimal value of [src.[start .. stop - 1]] (all digits), or
   [None] past [max_int]. *)
let decimal src start stop =
  let rec go n i =
    if i = stop then Some n
    else
      let d = Char.code (String.unsafe_get src i) - Char.code '0' in
      if n > (max_int - d) / 10 then None else go ((n * 10) + d) (i + 1)
  in
  go 0 start

let lex_string cur start =
  let first = cur.pos + 1 (* past the opening quote *) in
  let rec close i =
    if i = cur.len then fail start "unterminated string literal"
    else
      match String.unsafe_get cur.src i with
      | '"' -> i
      | '\n' -> fail start "newline in string literal"
      | _ -> close (i + 1)
  in
  let stop = close first in
  cur.pos <- stop + 1;
  Token.String (String.sub cur.src first (stop - first))

let lex_money cur start =
  let dollar = cur.pos in
  cur.pos <- cur.pos + 1;
  let whole = cur.pos in
  skip_while cur is_digit;
  let whole_end = cur.pos in
  if whole_end = whole then fail start "expected digits after '$'";
  let frac =
    if cur.pos < cur.len && cur.src.[cur.pos] = '.' then begin
      cur.pos <- cur.pos + 1;
      let first = cur.pos in
      skip_while cur is_digit;
      if cur.pos - first <> 2 then fail start "money needs exactly two decimal digits";
      Option.get (decimal cur.src first cur.pos)
    end
    else 0
  in
  match decimal cur.src whole whole_end with
  | Some n when n <= (max_int - frac) / 100 -> Token.Money ((n * 100) + frac)
  | Some _ | None ->
    fail start "money literal %s is too large"
      (shown (String.sub cur.src dollar (cur.pos - dollar)))

let lex_int cur start =
  let first = cur.pos in
  skip_while cur is_digit;
  match decimal cur.src first cur.pos with
  | Some n -> Token.Int n
  | None ->
    fail start "integer literal %s is too large"
      (shown (String.sub cur.src first (cur.pos - first)))

let rec skip_blank cur =
  if cur.pos < cur.len then
    match String.unsafe_get cur.src cur.pos with
    | ' ' | '\t' | '\r' ->
      cur.pos <- cur.pos + 1;
      skip_blank cur
    | '\n' ->
      cur.pos <- cur.pos + 1;
      cur.line <- cur.line + 1;
      cur.bol <- cur.pos;
      skip_blank cur
    | '#' ->
      skip_while cur (fun c -> c <> '\n');
      skip_blank cur
    | _ -> ()

let punct cur loc token =
  cur.pos <- cur.pos + 1;
  Loc.at loc token

let next_token cur =
  skip_blank cur;
  let loc = here cur in
  if cur.pos = cur.len then Loc.at loc Token.Eof
  else
    match String.unsafe_get cur.src cur.pos with
    | ':' -> punct cur loc Token.Colon
    | ';' -> punct cur loc Token.Semicolon
    | '.' -> punct cur loc Token.Dot
    | '-' ->
      if cur.pos + 1 < cur.len && cur.src.[cur.pos + 1] = '>' then begin
        cur.pos <- cur.pos + 2;
        Loc.at loc Token.Arrow
      end
      else fail loc "expected '>' after '-'"
    | '"' -> Loc.at loc (lex_string cur loc)
    | '$' -> Loc.at loc (lex_money cur loc)
    | c when is_digit c -> Loc.at loc (lex_int cur loc)
    | c when is_ident_start c ->
      let first = cur.pos in
      skip_while cur is_ident_char;
      let word = String.sub cur.src first (cur.pos - first) in
      Loc.at loc (match Token.keyword word with Some kw -> kw | None -> Token.Ident word)
    | c -> fail loc "unexpected character %C" c

let tokenize src =
  let cur = { src; len = String.length src; pos = 0; line = 1; bol = 0 } in
  let rec loop acc =
    let tok = next_token cur in
    match tok.Loc.value with
    | Token.Eof -> List.rev (tok :: acc)
    | _ -> loop (tok :: acc)
  in
  match loop [] with tokens -> Ok tokens | exception Lex_error e -> Error e
