(* The daemon's wire contract, bolted down at three layers: the frame
   reassembler against arbitrary chunking, the request/response JSON
   vocabulary as a round trip, and a live server on a real Unix socket
   — handshake, submission, backpressure, garbage, and graceful
   drain. *)

module Frame = Trust_daemon.Frame
module Bytebuf = Trust_daemon.Bytebuf
module Wire = Trust_daemon.Wire
module Admission = Trust_daemon.Admission
module Server = Trust_daemon.Server
module Client = Trust_daemon.Client
module Ring = Trust_obs.Ring
module Scheduler = Trust_serve.Scheduler

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* -- framing -- *)

let frames events =
  List.map (function Frame.Frame p -> p | Frame.Oversized n -> Printf.sprintf "<oversized %d>" n) events

let test_frame_roundtrip () =
  let d = Frame.create () in
  Alcotest.(check (list string))
    "one frame back" [ "hello" ]
    (frames (Frame.feed_string d (Frame.encode "hello")));
  check_int "nothing buffered" 0 (Frame.buffered d);
  check "not mid-frame" false (Frame.mid_frame d)

let test_frame_byte_at_a_time () =
  (* the pathological chunking: every byte arrives alone *)
  let d = Frame.create () in
  let payload = "{\"type\":\"ping\",\"id\":7}" in
  let bytes = Frame.encode payload in
  let got = ref [] in
  String.iter
    (fun c -> got := !got @ frames (Frame.feed_string d (String.make 1 c)))
    bytes;
  Alcotest.(check (list string)) "reassembled" [ payload ] !got;
  check_int "drained" 0 (Frame.buffered d)

let test_frame_batch_and_split () =
  (* three frames in one read, then a fourth split across the header *)
  let d = Frame.create () in
  let p1 = "a" and p2 = String.make 100 'b' and p3 = "" in
  let batch = Frame.encode p1 ^ Frame.encode p2 ^ Frame.encode p3 in
  Alcotest.(check (list string)) "batch order" [ p1; p2; p3 ] (frames (Frame.feed_string d batch));
  let p4 = "tail" in
  let enc = Frame.encode p4 in
  Alcotest.(check (list string)) "header half delivers nothing" []
    (frames (Frame.feed_string d (String.sub enc 0 2)));
  check "mid-frame while split" true (Frame.mid_frame d);
  Alcotest.(check (list string)) "rest completes it" [ p4 ]
    (frames (Frame.feed_string d (String.sub enc 2 (String.length enc - 2))))

let test_frame_oversized_poisons () =
  let d = Frame.create ~max_frame:64 () in
  let events = Frame.feed_string d (Frame.encode (String.make 65 'x')) in
  (match events with
  | [ Frame.Oversized 65 ] -> ()
  | _ -> Alcotest.fail "expected Oversized 65");
  check "poisoned" true (Frame.poisoned d);
  Alcotest.(check (list string)) "poisoned decoder yields nothing" []
    (frames (Frame.feed_string d (Frame.encode "ok")))

let test_frame_ascii_garbage_is_oversized () =
  (* line noise before the handshake: ASCII reads as a huge length *)
  let d = Frame.create () in
  match Frame.feed_string d "GET / HTTP/1.0\r\n\r\n" with
  | [ Frame.Oversized n ] ->
    check "ASCII decodes far beyond the bound" true (n > Frame.default_max);
    check "poisoned" true (Frame.poisoned d)
  | _ -> Alcotest.fail "expected a single Oversized event"

let test_frame_empty_and_bounds () =
  let d = Frame.create () in
  Alcotest.(check (list string)) "empty payload frames fine" [ "" ]
    (frames (Frame.feed_string d (Frame.encode "")));
  check "feeding nothing is a no-op" true (Frame.feed_string d "" = [])

(* -- framing properties -- *)

let gen_payloads =
  QCheck2.Gen.(list_size (int_range 0 12) (string_size ~gen:char (int_range 0 200)))

(* Chunk sizes, cycled until the stream runs out. *)
let gen_chunking = QCheck2.Gen.(list_size (int_range 1 8) (int_range 1 70))

(* Feed [stream] in chunks through [Frame.feed], each chunk sitting in
   a larger buffer so only [len] bytes may be read from it. *)
let feed_chunked d stream sizes =
  let sizes = Array.of_list sizes in
  let total = String.length stream in
  let rec go pos k acc =
    if pos >= total then List.concat (List.rev acc)
    else begin
      let len = min sizes.(k mod Array.length sizes) (total - pos) in
      let buf = Bytes.make (len + 7) 'Z' in
      Bytes.blit_string stream pos buf 0 len;
      go (pos + len) (k + 1) (Frame.feed d buf len :: acc)
    end
  in
  go 0 0 []

let prop_frame_any_chunking =
  QCheck2.Test.make ~name:"any chunking yields the whole feed's frames" ~count:300
    QCheck2.Gen.(pair gen_payloads gen_chunking)
    (fun (payloads, sizes) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let whole = Frame.feed_string (Frame.create ()) stream in
      let d = Frame.create () in
      let chunked = feed_chunked d stream sizes in
      chunked = whole
      && frames chunked = payloads
      && Frame.buffered d = 0
      && not (Frame.mid_frame d))

let prop_frame_oversized_any_boundary =
  QCheck2.Test.make ~name:"an oversized header poisons at any chunk boundary" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 6) (string_size ~gen:char (int_range 0 64)))
        (int_range 65 100_000) gen_chunking)
    (fun (payloads, announced, sizes) ->
      let header = String.sub (Frame.encode (String.make announced 'x')) 0 4 in
      let stream = String.concat "" (List.map Frame.encode payloads) ^ header ^ "trailing bytes" in
      let d = Frame.create ~max_frame:64 () in
      let events = feed_chunked d stream sizes in
      events = List.map (fun p -> Frame.Frame p) payloads @ [ Frame.Oversized announced ]
      && Frame.poisoned d
      && Frame.buffered d = 0
      && Frame.feed_string d (Frame.encode "ok") = [])

(* The byte queue under the decoder and the server's output, against a
   string model: appends of any size interleaved with consumes, so the
   store both compacts in place and grows. *)
let prop_bytebuf_model =
  QCheck2.Test.make ~name:"byte queue matches a string model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (oneof
           [
             map (fun s -> `Add s) (string_size ~gen:printable (int_range 0 90));
             map (fun k -> `Consume k) nat;
           ]))
    (fun ops ->
      let q = Bytebuf.create 16 in
      let model = ref "" in
      List.for_all
        (fun op ->
          (match op with
          | `Add s ->
            if String.length s mod 2 = 0 then Bytebuf.add_string q s
            else Bytebuf.add_subbytes q (Bytes.of_string ("<" ^ s ^ ">")) 1 (String.length s);
            model := !model ^ s
          | `Consume k ->
            let k = k mod (String.length !model + 1) in
            Bytebuf.consume q k;
            model := String.sub !model k (String.length !model - k));
          Bytebuf.length q = String.length !model
          && Bytebuf.sub_string q 0 (Bytebuf.length q) = !model)
        ops)

(* Seeded mutation fuzz over valid request frames: byte flips,
   truncations and splices, applied to the frame bytes or to the spec
   inside a submit, must never make an exception escape the decoder,
   the wire vocabulary or elaboration. Refusals are fine. *)
let fuzz_specs =
  lazy
    (Array.map
       (fun f -> In_channel.with_open_bin ("../specs/" ^ f) In_channel.input_all)
       [| "example1.exg"; "example2.exg"; "fig7.exg"; "two_bundles.exg"; "trustweb.exg" |])

let fuzz_requests =
  lazy
    (Array.append
       (Array.mapi (fun id spec -> Wire.Submit { id; spec }) (Lazy.force fuzz_specs))
       [|
         Wire.Hello { version = Wire.version };
         Wire.Ping { id = 1 };
         Wire.Metrics { id = 2 };
         Wire.Stats { id = 3 };
         Wire.Trace { id = 4 };
       |])

let request_frame r = Frame.encode (Wire.encode_request r)
let fuzz_frames = lazy (Array.map request_frame (Lazy.force fuzz_requests))

type mutation =
  | Flips of (int * int) list  (** position (scaled to the length), xor mask *)
  | Truncate of int
  | Splice of int * int * int  (** donor, cut in this one, cut in the donor *)

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        map (fun fs -> Flips fs) (list_size (int_range 1 4) (pair nat (int_range 1 255)));
        map (fun n -> Truncate n) nat;
        map (fun (a, b, c) -> Splice (a, b, c)) (triple nat nat nat);
      ])

let mutate pool s = function
  | Flips fs ->
    if s = "" then s
    else begin
      let b = Bytes.of_string s in
      List.iter
        (fun (pos, mask) ->
          let i = pos mod Bytes.length b in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask))
        fs;
      Bytes.to_string b
    end
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Splice (donor, i, j) ->
    let t = pool.(donor mod Array.length pool) in
    let i = i mod (String.length s + 1) and j = j mod (String.length t + 1) in
    String.sub s 0 i ^ String.sub t j (String.length t - j)

(* Run every layer the daemon runs on a frame stream. *)
let digest_frames stream =
  List.iter
    (function
      | Frame.Oversized _ -> ()
      | Frame.Frame payload -> (
        match Wire.decode_request payload with
        | Ok (Wire.Submit { spec; _ }) -> ignore (Trust_lang.Elaborate.from_string spec)
        | Ok _ | Error _ -> ()))
    (Frame.feed_string (Frame.create ()) stream)

let prop_mutants_never_raise =
  QCheck2.Test.make ~name:"mutated request frames never raise" ~count:10_000
    QCheck2.Gen.(triple nat bool gen_mutation)
    (fun (which, in_spec, m) ->
      let reqs = Lazy.force fuzz_requests in
      let k = which mod Array.length reqs in
      match reqs.(k), in_spec with
      | Wire.Submit { id; spec }, true ->
        let spec = mutate (Lazy.force fuzz_specs) spec m in
        ignore (Trust_lang.Elaborate.from_string spec);
        digest_frames (request_frame (Wire.Submit { id; spec }));
        true
      | _ ->
        let frames = Lazy.force fuzz_frames in
        let stream = mutate frames frames.(k) m in
        digest_frames stream;
        (* the payload behind a truncated or spliced header, read as-is *)
        if String.length stream >= 4 then
          ignore (Wire.decode_request (String.sub stream 4 (String.length stream - 4)));
        true)

(* -- wire vocabulary -- *)

let test_wire_request_roundtrip () =
  let cases =
    [
      Wire.Hello { version = Wire.version };
      Wire.Submit { id = 3; spec = "principal c : consumer\n\"quoted\\back\"" };
      Wire.Ping { id = 0 };
      Wire.Metrics { id = 12 };
      Wire.Stats { id = 99 };
    ]
  in
  List.iter
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok got -> check "request round trip" true (got = req)
      | Error e -> Alcotest.fail ("request round trip failed: " ^ e))
    cases

let test_wire_response_roundtrip () =
  let cases =
    [
      Wire.Welcome { version = 1; server = "trustseq test" };
      Wire.Result
        {
          id = 5;
          status = "settled";
          exit_code = 0;
          cache_hit = true;
          ticks = 10;
          events = 4;
          attempts = 1;
          exposure_peak = 30;
          exposure_ticks = 6;
          exposure_violations = 0;
          reason = None;
        };
      Wire.Result
        {
          id = 6;
          status = "error";
          exit_code = 2;
          cache_hit = false;
          ticks = 0;
          events = 0;
          attempts = 0;
          exposure_peak = 0;
          exposure_ticks = 0;
          exposure_violations = 0;
          reason = Some "<wire>:1:1: expected a declaration, found 'nope'";
        };
      Wire.Busy { id = 7 };
      Wire.Pong { id = 8 };
      Wire.Text { id = 9; kind = "metrics"; text = "# TYPE x counter\nx 1\n" };
      Wire.Refused { id = None; reason = "unsupported protocol version 9" };
      Wire.Refused { id = Some 4; reason = "oversized frame" };
    ]
  in
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok got -> check "response round trip" true (got = resp)
      | Error e -> Alcotest.fail ("response round trip failed: " ^ e))
    cases

let bad_escape_ping = "{\"type\":\"ping\",\"id\":1,\"x\":\"\\uzzzz\"}"

let test_wire_malformed () =
  List.iter
    (fun payload ->
      match Wire.decode_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("decoded malformed request: " ^ payload))
    [
      "";
      "nonsense";
      "{}";
      "{\"type\":\"warp\"}";
      "{\"type\":\"submit\",\"id\":1}";
      (* [\u] escapes that are not four hex digits *)
      bad_escape_ping;
      "{\"type\":\"ping\",\"id\":1,\"x\":\"\\u12\"}";
    ]

(* -- admission -- *)

let test_admission_bound () =
  let q = Admission.create ~bound:2 () in
  check "first admitted" true (Admission.try_push q 1);
  check "second admitted" true (Admission.try_push q 2);
  check "third refused" false (Admission.try_push q 3);
  check_int "depth" 2 (Admission.depth q);
  check_int "peak" 2 (Admission.peak q);
  check_int "admitted" 2 (Admission.admitted q);
  check_int "refused" 1 (Admission.refused q);
  check "pops in order" true (Admission.pop q = Some 1);
  check "bound frees up" true (Admission.try_push q 4)

let test_admission_zero_bound () =
  let q = Admission.create ~bound:0 () in
  check "everything refused" false (Admission.try_push q ());
  check_int "nothing admitted" 0 (Admission.admitted q)

(* -- live server -- *)

let good_spec =
  String.concat "\n"
    [
      "principal c : consumer";
      "principal p : producer";
      "trusted t";
      "deal cp: c pays $10; p gives \"d\"; via t";
      "";
    ]

let sock_path name = Printf.sprintf "/tmp/trustseq-test-%d-%s.sock" (Unix.getpid ()) name

(* Start a server in its own domain, run [f client_addr stop], then
   stop, join, and hand the final stats to [after]. *)
let with_server ?(config = Server.default) name f after =
  let path = sock_path name in
  let stop = Atomic.make false in
  let cfg = { config with Server.unix_path = Some path } in
  let srv = Domain.spawn (fun () -> Server.run ~stop cfg) in
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      ignore (Unix.select [] [] [] 0.01);
      await (n - 1)
    end
  in
  await 500;
  let finally () =
    Atomic.set stop true;
    Domain.join srv
  in
  (try f ("unix:" ^ path) stop
   with e ->
     ignore (finally ());
     raise e);
  after (finally ())

(* The client reads every response into the one buffer its connection
   owns, so a submit round trip leaves the major heap alone: a per-read
   64 KiB buffer would cost about 8,200 major words a submit. The
   counters are this domain's; the server runs on its own. *)
let test_client_allocation_budget () =
  with_server "allocbudget"
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        let submit id =
          match Client.submit client ~id ~spec:good_spec with
          | Ok (Wire.Result _) -> ()
          | Ok _ -> Alcotest.fail "expected a result"
          | Error e -> Alcotest.fail e
        in
        for id = 1 to 200 do
          submit id
        done;
        let _, _, major0 = Gc.counters () in
        for id = 201 to 1200 do
          submit id
        done;
        let _, _, major1 = Gc.counters () in
        Client.close client;
        let per_submit = (major1 -. major0) /. 1000. in
        if per_submit >= 64. then
          Alcotest.failf "%.1f major words per submit (budget 64)" per_submit)
    (fun stats -> check_int "every submission served" 1200 stats.Server.served)

(* The socket file appears only once it accepts: the listener binds
   and listens on a temporary name and renames it into place. Whether
   startup succeeds or fails, the temporary name is gone. *)
let test_server_socket_appears_listening () =
  with_server "listening"
    (fun addr _stop ->
      check "no temporary name after startup" false
        (Sys.file_exists (sock_path "listening" ^ ".tmp"));
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client -> Client.close client)
    (fun stats -> check "drained" true stats.Server.drained);
  (* a path the rename cannot replace: a non-empty directory *)
  let dir = sock_path "isdir" in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let inside = Filename.concat dir "keep" in
  Out_channel.with_open_text inside ignore;
  let failed =
    match Server.run ~stop:(Atomic.make true) { Server.default with Server.unix_path = Some dir } with
    | _ -> false
    | exception Unix.Unix_error _ -> true
  in
  check "startup fails" true failed;
  check "the temporary name is removed" false (Sys.file_exists (dir ^ ".tmp"));
  Sys.remove inside;
  Unix.rmdir dir

let test_server_submit_settles () =
  with_server "settle"
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; exit_code; cache_hit; _ }) ->
          check_string "settled" "settled" status;
          check_int "exit 0" 0 exit_code;
          check "first sight misses the cache" false cache_hit
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (* the identical spec again: now a cache hit, same verdict *)
        (match Client.submit client ~id:2 ~spec:good_spec with
        | Ok (Wire.Result { status; cache_hit; _ }) ->
          check_string "settled again" "settled" status;
          check "second sight hits" true cache_hit
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (* a rejected spec still answers — with the parse position *)
        (match Client.submit client ~id:3 ~spec:"garbage here" with
        | Ok (Wire.Result { status; exit_code; reason; _ }) ->
          check_string "error status" "error" status;
          check_int "exit 2" 2 exit_code;
          check "reason names the wire source" true
            (match reason with Some r -> String.length r > 0 && String.sub r 0 6 = "<wire>" | None -> false)
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (match Client.request client (Wire.Ping { id = 4 }) with
        | Ok (Wire.Pong { id }) -> check_int "pong echoes id" 4 id
        | _ -> Alcotest.fail "expected pong");
        Client.close client)
    (fun stats ->
      check_int "three submissions served" 3 stats.Server.served;
      check_int "two settled" 2 stats.Server.settled;
      check_int "one aborted (the parse error)" 1 stats.Server.aborted;
      check "drained" true stats.Server.drained)

let test_server_garbage_before_handshake () =
  with_server "garbage"
    (fun addr _stop ->
      let path = String.sub addr 5 (String.length addr - 5) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let garbage = "GET / HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd garbage 0 (String.length garbage));
      (* the daemon answers refused, then closes; read to EOF *)
      let d = Frame.create () in
      let buf = Bytes.create 4096 in
      let rec slurp acc =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> acc
        | n -> slurp (acc @ Frame.feed d buf n)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> acc
      in
      let events = slurp [] in
      Unix.close fd;
      (match events with
      | [ Frame.Frame payload ] -> (
        match Wire.decode_response payload with
        | Ok (Wire.Refused _) -> ()
        | _ -> Alcotest.fail "expected a refused response")
      | [] -> () (* the close can outrun the refusal; the counter below still proves it *)
      | _ -> Alcotest.fail "expected at most the refusal frame");
      (* the server survives: a well-behaved client still gets through *)
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; _ }) -> check_string "still serving" "settled" status
        | _ -> Alcotest.fail "expected a result after the garbage connection");
        Client.close client)
    (fun stats ->
      check "garbage counted as a protocol error" true (stats.Server.protocol_errors > 0);
      check_int "the good submission served" 1 stats.Server.served;
      check "drained" true stats.Server.drained)

let test_server_bad_escape_frame () =
  with_server "badescape"
    (fun addr _stop ->
      let path = String.sub addr 5 (String.length addr - 5) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let out =
        Frame.encode (Wire.encode_request (Wire.Hello { version = Wire.version }))
        ^ Frame.encode bad_escape_ping
      in
      ignore (Unix.write_substring fd out 0 (String.length out));
      (* welcome, then refused, then the daemon closes; read to EOF *)
      let d = Frame.create () in
      let buf = Bytes.create 4096 in
      let rec slurp acc =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> acc
        | n -> slurp (acc @ Frame.feed d buf n)
      in
      let events = slurp [] in
      Unix.close fd;
      (match List.map Wire.decode_response (frames events) with
      | [ Ok (Wire.Welcome _); Ok (Wire.Refused { id = None; _ }) ] -> ()
      | _ -> Alcotest.fail "expected welcome then a refused answer");
      (* the daemon survives: a new connection settles example1 *)
      let spec = In_channel.with_open_bin "../specs/example1.exg" In_channel.input_all in
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec with
        | Ok (Wire.Result { status; exit_code; _ }) ->
          check_string "example1 settles" "settled" status;
          check_int "exit 0" 0 exit_code
        | _ -> Alcotest.fail "expected a result after the bad-escape frame");
        Client.close client)
    (fun stats ->
      check_int "one protocol error" 1 stats.Server.protocol_errors;
      check_int "example1 served" 1 stats.Server.served;
      check "drained" true stats.Server.drained)

let test_server_zero_pending_is_busy () =
  with_server "busy"
    ~config:{ Server.default with Server.max_pending = 0 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Busy { id }) -> check_int "busy echoes id" 1 id
        | Ok _ -> Alcotest.fail "expected busy with a zero admission bound"
        | Error e -> Alcotest.fail e);
        Client.close client)
    (fun stats ->
      check_int "nothing served" 0 stats.Server.served;
      check_int "one busy answer" 1 stats.Server.busy;
      check "drained" true stats.Server.drained)

let test_server_drain_with_half_frame () =
  (* a client cut off mid-frame must not wedge the drain *)
  with_server "halfframe"
    (fun addr stop ->
      let path = String.sub addr 5 (String.length addr - 5) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* half a header: a frame the server will never see completed *)
      ignore (Unix.write_substring fd "\000\000" 0 2);
      Atomic.set stop true;
      (* leave fd open across the drain; close after the join in [after]
         via this closure capture *)
      ignore (Unix.select [] [] [] 0.05);
      Unix.close fd)
    (fun stats ->
      check "drain completes despite the half frame" true stats.Server.drained)

let test_server_epoch_aging_live () =
  (* tiny epochs: every 2 served requests, sweep entries idle 1 epoch.
     Distinct specs never repeat, so everything ages out. *)
  with_server "aging"
    ~config:{ Server.default with Server.epoch_every = 2; Server.max_idle_epochs = 1 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        for i = 1 to 10 do
          let spec =
            String.concat "\n"
              [
                Printf.sprintf "principal c%d : consumer" i;
                "principal p : producer";
                "trusted t";
                Printf.sprintf "deal d: c%d pays $10; p gives \"doc\"; via t" i;
                "";
              ]
          in
          match Client.submit client ~id:i ~spec with
          | Ok (Wire.Result _) -> ()
          | Ok _ -> Alcotest.fail "expected a result"
          | Error e -> Alcotest.fail e
        done;
        Client.close client)
    (fun stats ->
      check_int "ten served" 10 stats.Server.served;
      check "epochs ticked" true (stats.Server.epochs >= 4);
      check "the one-shot tail ages out" true (stats.Server.aged_out > 0);
      check "resident stays below served" true (stats.Server.cache_size < 10))

(* The metrics answer reads the cache and the ring when it renders, so
   it is current between epoch ticks: three distinct submissions show
   three resident entries, and whatever the ring kept shows as live
   bytes. *)
let test_server_metrics_current () =
  let sample name text =
    let prefix = name ^ " " in
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
    with
    | Some line ->
      float_of_string (String.sub line (String.length prefix) (String.length line - String.length prefix))
    | None -> Alcotest.fail (name ^ " missing from the metrics answer")
  in
  with_server "metricsnow"
    ~config:
      {
        Server.default with
        Server.scheduler = { Server.default.Server.scheduler with Scheduler.sample_rate = 1.0 };
      }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        for i = 1 to 3 do
          let spec =
            String.concat "\n"
              [
                Printf.sprintf "principal c%d : consumer" i;
                "principal p : producer";
                "trusted t";
                Printf.sprintf "deal d: c%d pays $10; p gives \"doc\"; via t" i;
                "";
              ]
          in
          match Client.submit client ~id:i ~spec with
          | Ok (Wire.Result { status; _ }) -> check_string "settled" "settled" status
          | Ok _ -> Alcotest.fail "expected a result"
          | Error e -> Alcotest.fail e
        done;
        (match Client.request client (Wire.Metrics { id = 4 }) with
        | Ok (Wire.Text { kind = "metrics"; text; _ }) ->
          check "three resident entries" true
            (List.mem "serve_cache_size 3.000000" (String.split_on_char '\n' text));
          check "three misses" true (sample "serve_cache_misses_total" text = 3.);
          let kept =
            sample "obs_sessions_sampled_total" text +. sample "obs_sessions_kept_tail_total" text
          in
          check "the ring kept the sampled sessions" true (kept > 0.);
          check "live ring bytes" true (sample "obs_ring_bytes" text > 0.)
        | Ok _ -> Alcotest.fail "expected a metrics text"
        | Error e -> Alcotest.fail e);
        (match Client.request client (Wire.Stats { id = 5 }) with
        | Ok (Wire.Text { kind = "stats"; text; _ }) ->
          check_string "stats read the registry and the cache"
            {|{"served":3,"settled":3,"expired":0,"aborted":0,"busy":0,"protocol_errors":0,"connections":1,"epochs":0,"aged_out":0,"cache_size":3,"drained":false}|}
            text
        | Ok _ -> Alcotest.fail "expected a stats text"
        | Error e -> Alcotest.fail e);
        Client.close client)
    (fun stats -> check_int "three resident at drain" 3 stats.Server.cache_size)

(* -- live tracing over the wire: the trace request drains the ring -- *)

let decode_exn dump =
  match Ring.decode dump with
  | Ok r -> r
  | Error e -> Alcotest.fail ("ring decode failed: " ^ e)

let test_server_trace_drain () =
  (* sample everything so both submissions land in the ring *)
  with_server "tracedrain"
    ~config:
      {
        Server.default with
        Server.scheduler = { Server.default.Server.scheduler with Scheduler.sample_rate = 1.0 };
      }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        List.iter
          (fun id ->
            match Client.submit client ~id ~spec:good_spec with
            | Ok (Wire.Result { status; _ }) -> check_string "settled" "settled" status
            | Ok _ -> Alcotest.fail "expected a result"
            | Error e -> Alcotest.fail e)
          [ 1; 2 ];
        (match Client.trace client ~id:3 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "both sessions in the ring" 2 (List.length sessions);
          check_int "decoder agrees" 2 stats.Ring.d_sessions;
          check "head-sampled" true
            (List.for_all (fun s -> s.Ring.s_keep = Ring.Sampled) sessions);
          let jsonl = Ring.export Trust_obs.Obs.Jsonl sessions in
          check "daemon root span present" true
            (let n = String.length jsonl and k = "daemon.request" in
             let kl = String.length k in
             let rec at i = i + kl <= n && (String.sub jsonl i kl = k || at (i + 1)) in
             at 0));
        (* drain semantics: a second trace sees only what came after *)
        (match Client.trace client ~id:4 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "idle drain is empty" 0 (List.length sessions);
          check "lifetime written counter survives the drain" true (stats.Ring.d_written > 0));
        Client.close client)
    (fun stats -> check_int "two submissions served" 2 stats.Server.served)

let test_server_trace_tail_promotion () =
  (* nothing head-sampled, but an impossible deadline expires every
     session — the tail rules must replay it into the ring anyway *)
  with_server "tracetail"
    ~config:
      {
        Server.default with
        Server.scheduler =
          {
            Server.default.Server.scheduler with
            Scheduler.sample_rate = 0.0;
            session_deadline = 1;
          };
      }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.submit client ~id:1 ~spec:good_spec with
        | Ok (Wire.Result { status; _ }) -> check_string "expired" "expired" status
        | Ok _ -> Alcotest.fail "expected a result"
        | Error e -> Alcotest.fail e);
        (match Client.trace client ~id:2 with
        | Error e -> Alcotest.fail e
        | Ok dump -> (
          match decode_exn dump with
          | [ s ], _ ->
            check_string "promoted as an expiry" (Ring.keep_label Ring.Expiry)
              (Ring.keep_label s.Ring.s_keep)
          | sessions, _ ->
            Alcotest.fail
              (Printf.sprintf "expected exactly the expired session, got %d"
                 (List.length sessions))));
        Client.close client)
    (fun stats -> check_int "one expired" 1 stats.Server.expired)

let test_server_trace_disabled_is_empty () =
  with_server "tracenone"
    ~config:{ Server.default with Server.trace_ring = 0 }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        (match Client.trace client ~id:1 with
        | Error e -> Alcotest.fail e
        | Ok dump ->
          let sessions, stats = decode_exn dump in
          check_int "no sessions" 0 (List.length sessions);
          check_int "zero-shard dump" 0 stats.Ring.d_shards);
        Client.close client)
    (fun stats -> check_int "nothing served" 0 stats.Server.served)

(* One retention rule for both front doors: the same specs, ids and
   injected defectors under the same scheduler config must leave the
   same (session id, keep) list in the daemon's ring as in a batch
   Scheduler.run's — head-sampled at rate 0.5, tail-promoted otherwise. *)
let test_server_keeps_match_batch () =
  let universe =
    Workload.Universe.create
      { Workload.Universe.defect_heavy with Workload.Universe.principals = 10_000 }
  in
  let rng = Workload.Prng.create 11L in
  let texts =
    List.init 60 (fun _ -> Trust_lang.Printer.to_string (Workload.Universe.sample universe rng))
  in
  let every = 3 in
  let scheduler =
    { Server.default.Server.scheduler with Scheduler.drop_rate = 0.1; sample_rate = 0.5 }
  in
  let ring_bytes = 1 lsl 22 in
  let keeps sessions =
    List.map (fun s -> (s.Ring.s_id, Ring.keep_label s.Ring.s_keep)) sessions
    |> List.sort compare
  in
  let daemon = ref [] in
  with_server "keeps"
    ~config:{ Server.default with Server.scheduler; defect_every = every; trace_ring = ring_bytes }
    (fun addr _stop ->
      match Client.connect addr with
      | Error e -> Alcotest.fail e
      | Ok client ->
        List.iteri
          (fun i spec ->
            match Client.submit client ~id:(i + 1) ~spec with
            | Ok (Wire.Result _ | Wire.Refused _) -> ()
            | Ok _ -> Alcotest.fail "expected a result"
            | Error e -> Alcotest.fail e)
          texts;
        (match Client.trace client ~id:0 with
        | Error e -> Alcotest.fail e
        | Ok dump -> daemon := keeps (fst (decode_exn dump)));
        Client.close client)
    (fun stats -> check_int "every submission served" 60 stats.Server.served);
  let sessions =
    List.mapi
      (fun i text ->
        match Trust_lang.Elaborate.from_string ~file:"<wire>" text with
        | Error e -> Alcotest.fail e
        | Ok spec ->
          Trust_serve.Session.make ~id:i
            ~defectors:(Trust_sim.Harness.injected_defectors ~every i spec)
            spec)
      texts
  in
  let ring = Ring.create ~capacity:ring_bytes () in
  let cache = Trust_serve.Cache.create ~capacity:4096 Server.default.Server.policy in
  ignore (Scheduler.run ~ring scheduler cache sessions : Scheduler.stats);
  let batch =
    match Ring.decode (Ring.dump ring) with
    | Ok (sessions, _) -> keeps sessions
    | Error e -> Alcotest.fail e
  in
  let show l = String.concat " " (List.map (fun (id, k) -> Printf.sprintf "%d:%s" id k) l) in
  check_string "same (id, keep) list" (show batch) (show !daemon);
  let labels = List.map snd batch in
  check "some sessions head-sampled" true (List.mem "sampled" labels);
  check "some sessions tail-promoted" true (List.exists (fun l -> l <> "sampled") labels);
  check "some sessions dropped" true (List.length batch < 60)

(* A tail-promoted daemon trace is the head-sampled one: the same
   stream of defect-heavy submissions with drops, at sampling 0 and
   1.0, leaves each tail-kept session's spans — the daemon.request
   root and its elaboration spans included — identical in the two
   rings but for the root's keep attr. *)
let test_server_tail_trace_matches_sampled () =
  let universe =
    Workload.Universe.create
      { Workload.Universe.defect_heavy with Workload.Universe.principals = 10_000 }
  in
  let rng = Workload.Prng.create 13L in
  let texts =
    List.init 30 (fun _ -> Trust_lang.Printer.to_string (Workload.Universe.sample universe rng))
  in
  let stream name rate =
    let scheduler =
      { Server.default.Server.scheduler with Scheduler.drop_rate = 0.1; sample_rate = rate }
    in
    let decoded = ref [] in
    with_server name
      ~config:{ Server.default with Server.scheduler; defect_every = 3; trace_ring = 1 lsl 22 }
      (fun addr _stop ->
        match Client.connect addr with
        | Error e -> Alcotest.fail e
        | Ok client ->
          List.iteri
            (fun i spec ->
              match Client.submit client ~id:(i + 1) ~spec with
              | Ok (Wire.Result _ | Wire.Refused _) -> ()
              | Ok _ -> Alcotest.fail "expected a result"
              | Error e -> Alcotest.fail e)
            texts;
          (match Client.trace client ~id:0 with
          | Error e -> Alcotest.fail e
          | Ok dump -> decoded := fst (decode_exn dump));
          Client.close client)
      (fun stats -> check_int "every submission served" 30 stats.Server.served);
    !decoded
  in
  let tail = stream "tailtrace0" 0.0 and head = stream "tailtrace1" 1.0 in
  let without_keep views =
    List.map
      (fun (v : Trust_obs.Obs.span_view) ->
        if v.Trust_obs.Obs.view_parent = None then
          {
            v with
            Trust_obs.Obs.view_attrs =
              List.filter (fun (k, _) -> k <> "keep") v.Trust_obs.Obs.view_attrs;
          }
        else v)
      views
  in
  check "some sessions tail-promoted" true (tail <> []);
  List.iter
    (fun (t : Ring.session) ->
      let here = Printf.sprintf "session %d (%s)" t.Ring.s_id (Ring.keep_label t.Ring.s_keep) in
      match List.find_opt (fun h -> h.Ring.s_id = t.Ring.s_id) head with
      | None -> Alcotest.failf "%s: missing at sampling 1.0" here
      | Some h ->
        check (here ^ ": spans equal the head-sampled trace's") true
          (without_keep t.Ring.s_views = without_keep h.Ring.s_views);
        check_int (here ^ ": clock") h.Ring.s_clock t.Ring.s_clock)
    tail

let () =
  Alcotest.run "daemon"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte at a time" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "batch and split header" `Quick test_frame_batch_and_split;
          Alcotest.test_case "oversized poisons" `Quick test_frame_oversized_poisons;
          Alcotest.test_case "ascii garbage is oversized" `Quick test_frame_ascii_garbage_is_oversized;
          Alcotest.test_case "empty payloads" `Quick test_frame_empty_and_bounds;
        ] );
      ( "frame properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]))
          [
            prop_bytebuf_model;
            prop_frame_any_chunking;
            prop_frame_oversized_any_boundary;
            prop_mutants_never_raise;
          ]
      );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_wire_response_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_wire_malformed;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound and counters" `Quick test_admission_bound;
          Alcotest.test_case "zero bound refuses all" `Quick test_admission_zero_bound;
        ] );
      ( "server",
        [
          Alcotest.test_case "submit settles" `Quick test_server_submit_settles;
          Alcotest.test_case "garbage before handshake" `Quick test_server_garbage_before_handshake;
          Alcotest.test_case "bad escape frame" `Quick test_server_bad_escape_frame;
          Alcotest.test_case "zero pending is busy" `Quick test_server_zero_pending_is_busy;
          Alcotest.test_case "drain with half frame" `Quick test_server_drain_with_half_frame;
          Alcotest.test_case "epoch aging live" `Quick test_server_epoch_aging_live;
          Alcotest.test_case "trace drains the ring" `Quick test_server_trace_drain;
          Alcotest.test_case "tail promotion over the wire" `Quick test_server_trace_tail_promotion;
          Alcotest.test_case "trace with tracing off" `Quick test_server_trace_disabled_is_empty;
          Alcotest.test_case "keeps match the batch scheduler" `Quick test_server_keeps_match_batch;
          Alcotest.test_case "tail trace matches sampled" `Quick test_server_tail_trace_matches_sampled;
          Alcotest.test_case "metrics answer is current" `Quick test_server_metrics_current;
          Alcotest.test_case "socket appears listening" `Quick test_server_socket_appears_listening;
          Alcotest.test_case "client allocation budget" `Quick test_client_allocation_budget;
        ] );
    ]
