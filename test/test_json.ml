(* Obs.Json: the compact printer is the inverse of the reader, and its
   byte form is pinned — the bench records and the wire both rely on
   it. *)

module Json = Trust_obs.Json

let test_compact_form () =
  let v =
    Json.Obj
      [
        ("bench", Json.Str "x");
        ("n", Json.Num "1.50");
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.Arr [ Json.Num "1"; Json.Str "a\"b\\\t\001" ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check string)
    "compact, members in order, numbers verbatim"
    {|{"bench":"x","n":1.50,"ok":true,"none":null,"xs":[1,"a\"b\\\t\u0001"],"o":{}}|}
    (Json.to_string v)

(* strings lean on the characters the escaper must handle: quotes,
   backslashes, every control byte, and high bytes passed through *)
let gen_string =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '/'; ':'; ',' ]);
             (2, map Char.chr (int_range 0 0x1f));
             (4, printable);
             (1, char);
           ])
      (int_range 0 12))

let gen_num =
  QCheck2.Gen.(
    oneof
      [
        map string_of_int int;
        map (Printf.sprintf "%.4f") (float_range (-1e6) 1e6);
        map (Printf.sprintf "%g") (float_range (-1e-3) 1e-3);
      ])

let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun s -> Json.Num s) gen_num;
                 map (fun s -> Json.Str s) gen_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 2,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_range 0 4) (pair gen_string (self (n / 3)))) );
                 (2, map (fun vs -> Json.Arr vs) (list_size (int_range 0 4) (self (n / 3))));
               ]))

let prop_round_trip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:500 ~print:Json.to_string gen_json
    (fun v -> Json.parse (Json.to_string v) = v)

let () =
  Alcotest.run "json"
    [
      ("printer", [ Alcotest.test_case "compact byte form" `Quick test_compact_form ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_round_trip ]);
    ]
