type t =
  | Ident of string
  | String of string
  | Money of int
  | Int of int
  | Colon
  | Semicolon
  | Dot
  | Arrow
  | Kw_principal
  | Kw_consumer
  | Kw_producer
  | Kw_broker
  | Kw_trusted
  | Kw_deal
  | Kw_pays
  | Kw_gives
  | Kw_via
  | Kw_within
  | Kw_relay
  | Kw_request
  | Kw_buys
  | Kw_from
  | Kw_for
  | Kw_priority
  | Kw_split
  | Kw_trust
  | Kw_persona
  | Kw_is
  | Kw_buyer
  | Kw_seller
  | Kw_left
  | Kw_right
  | Eof

let keywords =
  [
    ("principal", Kw_principal);
    ("consumer", Kw_consumer);
    ("producer", Kw_producer);
    ("broker", Kw_broker);
    ("trusted", Kw_trusted);
    ("deal", Kw_deal);
    ("pays", Kw_pays);
    ("gives", Kw_gives);
    ("via", Kw_via);
    ("within", Kw_within);
    ("relay", Kw_relay);
    ("request", Kw_request);
    ("buys", Kw_buys);
    ("from", Kw_from);
    ("for", Kw_for);
    ("priority", Kw_priority);
    ("split", Kw_split);
    ("trust", Kw_trust);
    ("persona", Kw_persona);
    ("is", Kw_is);
    ("buyer", Kw_buyer);
    ("seller", Kw_seller);
    ("left", Kw_left);
    ("right", Kw_right);
  ]

let keyword_table =
  let table = Hashtbl.create 32 in
  List.iter (fun (word, token) -> Hashtbl.replace table word token) keywords;
  table

let keyword word = Hashtbl.find_opt keyword_table word

let to_string = function
  | Ident s -> s
  | String s -> Printf.sprintf "%S" s
  | Money cents ->
    if cents mod 100 = 0 then Printf.sprintf "$%d" (cents / 100)
    else Printf.sprintf "$%d.%02d" (cents / 100) (cents mod 100)
  | Int n -> string_of_int n
  | Colon -> ":"
  | Semicolon -> ";"
  | Dot -> "."
  | Arrow -> "->"
  | Eof -> "<eof>"
  | kw -> (
    match List.find_opt (fun (_, t) -> t = kw) keywords with
    | Some (w, _) -> w
    | None -> "<unknown>")

let pp ppf t = Format.pp_print_string ppf (to_string t)
let equal (a : t) b = a = b
