(* Prometheus exposition-format conformance for Metrics.dump: HELP/TYPE
   lines, sorted families, cumulative histogram _bucket/_sum/_count
   triplets, and the volatile quarantine. The parser below is
   deliberately independent of the renderer: it re-derives the family
   structure from the text alone. *)

module Metrics = Trust_serve.Metrics
module Service = Trust_serve.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec at i = i + k <= n && (String.sub haystack i k = needle || at (i + 1)) in
  at 0

(* A parsed exposition: comment directives and samples, in order. *)
type line =
  | Help of string
  | Type of string * string  (* family, kind *)
  | Sample of string * string option * float  (* name, le label, value *)

let parse_line l =
  if l = "" then None
  else if String.length l >= 7 && String.sub l 0 7 = "# HELP " then
    let rest = String.sub l 7 (String.length l - 7) in
    Some (Help (List.hd (String.split_on_char ' ' rest)))
  else if String.length l >= 7 && String.sub l 0 7 = "# TYPE " then
    match String.split_on_char ' ' (String.sub l 7 (String.length l - 7)) with
    | [ family; kind ] -> Some (Type (family, kind))
    | _ -> Alcotest.fail ("malformed TYPE line: " ^ l)
  else
    match String.index_opt l ' ' with
    | None -> Alcotest.fail ("malformed sample line: " ^ l)
    | Some sp ->
      let name_part = String.sub l 0 sp in
      let value =
        match float_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1)) with
        | Some v -> v
        | None -> Alcotest.fail ("unparseable sample value: " ^ l)
      in
      (match String.index_opt name_part '{' with
      | None -> Some (Sample (name_part, None, value))
      | Some b ->
        let name = String.sub name_part 0 b in
        let label = String.sub name_part b (String.length name_part - b) in
        (* the only label the registry emits is le="..." *)
        let prefix = "{le=\"" in
        if String.length label < String.length prefix + 2
           || String.sub label 0 (String.length prefix) <> prefix
        then Alcotest.fail ("unexpected label set: " ^ l)
        else
          let le =
            String.sub label (String.length prefix)
              (String.length label - String.length prefix - 2)
          in
          Some (Sample (name, Some le, value)))

let parse text = List.filter_map parse_line (String.split_on_char '\n' text)

(* The family a sample belongs to: strip histogram suffixes. *)
let family_of name =
  let strip suffix =
    let k = String.length suffix and n = String.length name in
    if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k))
    else None
  in
  match (strip "_bucket", strip "_sum", strip "_count") with
  | Some f, _, _ | _, Some f, _ | _, _, Some f -> f
  | None, None, None -> name

(* Every sample must be preceded by exactly one TYPE directive for its
   family, and the declared kind must match the sample shape. *)
let check_typed lines =
  let types = Hashtbl.create 16 in
  List.iter
    (function
      | Type (family, kind) ->
        check ("single TYPE for " ^ family) false (Hashtbl.mem types family);
        check ("known kind for " ^ family) true
          (List.mem kind [ "counter"; "gauge"; "histogram" ]);
        Hashtbl.add types family kind
      | Help _ -> ()
      | Sample (name, le, _) -> (
        let family = family_of name in
        match Hashtbl.find_opt types family with
        | None -> Alcotest.fail ("sample before TYPE: " ^ name)
        | Some kind ->
          if le <> None || name <> family then
            check_string ("histogram-shaped sample " ^ name) "histogram" kind))
    lines;
  types

let check_sorted lines =
  let families =
    List.filter_map (function Type (family, _) -> Some family | _ -> None) lines
  in
  check "families sorted by name" true (List.sort String.compare families = families)

(* _bucket series cumulative and ending at +Inf, _count = +Inf bucket,
   _sum present — per histogram family. *)
let check_histograms lines types =
  Hashtbl.iter
    (fun family kind ->
      if kind = "histogram" then begin
        let buckets =
          List.filter_map
            (function
              | Sample (name, Some le, v) when name = family ^ "_bucket" -> Some (le, v)
              | _ -> None)
            lines
        in
        check (family ^ " has buckets") true (buckets <> []);
        check_string (family ^ " last bucket is +Inf") "+Inf" (fst (List.nth buckets (List.length buckets - 1)));
        ignore
          (List.fold_left
             (fun prev (_, v) ->
               check (family ^ " buckets cumulative") true (v >= prev);
               v)
             0. buckets);
        let scalar suffix =
          match
            List.filter_map
              (function
                | Sample (name, None, v) when name = family ^ suffix -> Some v
                | _ -> None)
              lines
          with
          | [ v ] -> v
          | _ -> Alcotest.fail (family ^ suffix ^ " missing or duplicated")
        in
        let count = scalar "_count" and _sum = scalar "_sum" in
        check (family ^ "_count equals the +Inf bucket") true
          (count = snd (List.nth buckets (List.length buckets - 1)))
      end)
    types

let conformance text =
  let lines = parse text in
  let types = check_typed lines in
  check_sorted lines;
  check_histograms lines types

(* a hand-built registry covering all three kinds plus a volatile gauge *)
let synthetic () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"things done" "test_things_total" in
  Metrics.incr ~by:3 c;
  let h = Metrics.histogram m ~help:"sizes" ~buckets:[ 1; 5; 10 ] "test_sizes" in
  List.iter (Metrics.observe h) [ 0; 2; 7; 20; 5 ];
  Metrics.gauge m ~help:"level" "test_level" 2.5;
  Metrics.gauge m ~help:"noise" ~volatile:true "test_noise" 9.;
  m

let test_synthetic_conformance () =
  let m = synthetic () in
  conformance (Metrics.dump m);
  check_string "dump aliases to_text" (Metrics.to_text m) (Metrics.dump m);
  check "volatile gauge quarantined from the dump" false (contains (Metrics.dump m) "test_noise");
  check "volatile gauge on the volatile channel" true
    (contains (Metrics.volatile_text m) "test_noise");
  check "deterministic gauge not on the volatile channel" false
    (contains (Metrics.volatile_text m) "test_level")

let test_synthetic_histogram_values () =
  (* observations 0,2,5 land in le<=1/le<=5; 7 in le<=10; 20 in +Inf *)
  let m = synthetic () in
  let lines = parse (Metrics.dump m) in
  let bucket le =
    match
      List.filter_map
        (function
          | Sample ("test_sizes_bucket", Some l, v) when l = le -> Some v | _ -> None)
        lines
    with
    | [ v ] -> int_of_float v
    | _ -> Alcotest.fail ("bucket " ^ le ^ " missing")
  in
  check_int "le=1" 1 (bucket "1");
  check_int "le=5" 3 (bucket "5");
  check_int "le=10" 4 (bucket "10");
  check_int "le=+Inf" 5 (bucket "+Inf")

(* the real serve registry, end to end *)
let test_batch_conformance () =
  let outcome =
    Service.run { Service.default with Service.sessions = 40; seed = 3L; jobs = 2 }
  in
  let dump = Metrics.dump outcome.Service.metrics in
  conformance dump;
  check "counter family present" true (contains dump "# TYPE serve_sessions_total counter");
  check "histogram family present" true (contains dump "# TYPE serve_session_ticks histogram");
  check "gauge family present" true (contains dump "# TYPE serve_cache_hit_rate gauge");
  check "volatile pool gauges quarantined" false (contains dump "serve_pool_worker_waits")

(* the daemon registry: the epoch-aging families must be registered and
   conformant even on an idle server (stop set before the first round) *)
let test_daemon_registry_conforms () =
  let module Server = Trust_daemon.Server in
  let m = Metrics.create () in
  let stop = Atomic.make true in
  let path = Printf.sprintf "/tmp/trustseq-metrics-%d.sock" (Unix.getpid ()) in
  let stats = Server.run ~stop ~metrics:m { Server.default with Server.unix_path = Some path } in
  check "drains immediately" true stats.Server.drained;
  let dump = Metrics.dump m in
  conformance dump;
  check "request counter family" true (contains dump "# TYPE daemon_requests_total counter");
  check "busy counter family" true (contains dump "# TYPE daemon_busy_total counter");
  check "aged-out counter family" true
    (contains dump "# TYPE serve_cache_aged_out_total counter");
  check "epoch gauge family" true (contains dump "# TYPE serve_cache_epoch gauge");
  check "cache size gauge family" true (contains dump "# TYPE serve_cache_size gauge")

let () =
  Alcotest.run "metrics"
    [
      ( "exposition",
        [
          Alcotest.test_case "synthetic registry conforms" `Quick test_synthetic_conformance;
          Alcotest.test_case "histogram buckets cumulative" `Quick test_synthetic_histogram_values;
          Alcotest.test_case "batch registry conforms" `Quick test_batch_conformance;
          Alcotest.test_case "daemon registry conforms" `Quick test_daemon_registry_conforms;
        ] );
    ]
