exception Bad of string

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Obj of (string * t) list
  | Arr of t list

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && line.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub line !pos k = word then (
      pos := !pos + k;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "dangling escape"
          else (
            (match line.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape"
              else (
                let code = int_of_string ("0x" ^ String.sub line (!pos + 1) 4) in
                pos := !pos + 4;
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then (
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
                else (
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))))
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ())
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a value"
    else Num (String.sub line start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      incr pos;
      Obj [])
    else (
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members [])
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      incr pos;
      Arr [])
    else (
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elements (v :: acc)
        | Some ']' ->
          incr pos;
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elements [])
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters" else v

let parse_result s = match parse s with v -> Ok v | exception Bad m -> Error m

let field obj k =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" k)))
  | _ -> raise (Bad "expected an object")

let field_opt obj k =
  match obj with Obj kvs -> List.assoc_opt k kvs | _ -> None

let as_int = function
  | Num s -> ( try int_of_string s with _ -> raise (Bad ("not an integer: " ^ s)))
  | _ -> raise (Bad "expected an integer")

let as_str = function Str s -> s | _ -> raise (Bad "expected a string")
let as_bool = function Bool b -> b | _ -> raise (Bad "expected a boolean")

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string v =
  let buf = Buffer.create 256 in
  let seq open_ close item xs =
    Buffer.add_char buf open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        item x)
      xs;
    Buffer.add_char buf close
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num s -> Buffer.add_string buf s
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Obj kvs ->
      seq '{' '}'
        (fun (k, v) ->
          go (Str k);
          Buffer.add_char buf ':';
          go v)
        kvs
    | Arr vs -> seq '[' ']' go vs
  in
  go v;
  Buffer.contents buf
