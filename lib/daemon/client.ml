type t = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  buf : bytes;  (** the connection's read buffer, reused by every receive *)
  mutable inbox : string list;  (** decoded payloads not yet consumed *)
  mutable server : string;
}

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Ok (Unix.ADDR_UNIX s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> Ok (Unix.ADDR_UNIX rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | None -> Error (Printf.sprintf "bad port %S" port)
        | Some port -> (
          match
            try Some (Unix.inet_addr_of_string host)
            with Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } -> None
              | h -> Some h.Unix.h_addr_list.(0)
              | exception Not_found -> None)
          with
          | None -> Error (Printf.sprintf "cannot resolve host %S" host)
          | Some addr -> Ok (Unix.ADDR_INET (addr, port)))))
    | _ -> Error (Printf.sprintf "unknown address scheme %S (use unix: or tcp:)" scheme))

let recv_payload t =
  match t.inbox with
  | p :: rest ->
    t.inbox <- rest;
    Ok p
  | [] ->
    let rec fill () =
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "timed out waiting for a response"
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | 0 -> Error "server closed the connection"
      | n -> (
        let frames =
          List.filter_map
            (function Frame.Frame p -> Some p | Frame.Oversized _ -> None)
            (Frame.feed t.decoder t.buf n)
        in
        if Frame.poisoned t.decoder then Error "oversized response frame"
        else
          match frames with
          | [] -> fill ()
          | p :: rest ->
            t.inbox <- rest;
            Ok p)
    in
    fill ()

let recv t =
  match recv_payload t with
  | Error _ as e -> e
  | Ok payload -> Wire.decode_response payload

let request t req =
  match Frame.write_frame t.fd (Wire.encode_request req) with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> recv t

let submit t ~id ~spec = request t (Wire.Submit { id; spec })

(* Drain the daemon's trace ring: unwrap the text frame and the base64
   transport, returning raw binary dump bytes ready for Ring.decode. *)
let trace t ~id =
  match request t (Wire.Trace { id }) with
  | Error e -> Error e
  | Ok (Wire.Text { kind = "ring"; text; _ }) -> Trust_obs.B64.decode text
  | Ok (Wire.Refused { reason; _ }) -> Error ("refused: " ^ reason)
  | Ok _ -> Error "trace: unexpected response"

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let connect ?(timeout = 10.) addr =
  match parse_addr addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
    let domain = Unix.domain_of_sockaddr sockaddr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" addr (Unix.error_message e))
    | () -> (
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let t = { fd; decoder = Frame.create (); buf = Bytes.create 65536; inbox = []; server = "" } in
      match request t (Wire.Hello { version = Wire.version }) with
      | Ok (Wire.Welcome { server; _ }) ->
        t.server <- server;
        Ok t
      | Ok (Wire.Refused { reason; _ }) ->
        close t;
        Error ("handshake refused: " ^ reason)
      | Ok _ ->
        close t;
        Error "handshake: unexpected response"
      | Error e ->
        close t;
        Error ("handshake: " ^ e)))

let server t = t.server
