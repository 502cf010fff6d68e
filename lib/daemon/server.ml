module Cache = Trust_serve.Cache
module Metrics = Trust_serve.Metrics
module Scheduler = Trust_serve.Scheduler
module Session = Trust_serve.Session
module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring
module Mine = Trust_obs.Mine
module B64 = Trust_obs.B64
module Shape = Trust_serve.Shape

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  policy : Cache.policy;
  cache_capacity : int;
  scheduler : Scheduler.config;
  max_pending : int;
  max_frame : int;
  epoch_every : int;
  max_idle_epochs : int;
  snapshot_path : string option;
  trace_path : string option;
  trace_ring : int;
  mine_every : int;
  mine_pin : int;
  mine_deny : int;
  defect_every : int;
  banner : string;
}

let default =
  {
    unix_path = None;
    tcp = None;
    policy = Cache.default_policy;
    cache_capacity = 4096;
    (* tracing is on by default precisely because it is priced for
       production: a 1 MiB ring and 1% head sampling, with tail keeps
       promoting every anomalous session regardless of the rate *)
    scheduler = { Scheduler.default_config with Scheduler.sample_rate = 0.01 };
    max_pending = 64;
    max_frame = Frame.default_max;
    epoch_every = 256;
    max_idle_epochs = 2;
    snapshot_path = None;
    trace_path = None;
    trace_ring = 1 lsl 20;
    (* the feedback loop is opt-in: mining costs a ring drain + refold
       every [mine_every] requests, and pins/denies change admission
       behavior — operators turn the knob deliberately *)
    mine_every = 0;
    mine_pin = 2;
    mine_deny = 1;
    defect_every = 0;
    banner = "trustseq";
  }

type stats = {
  served : int;
  settled : int;
  expired : int;
  aborted : int;
  busy : int;
  protocol_errors : int;
  connections : int;
  epochs : int;
  aged_out : int;
  cache_size : int;
  drained : bool;
}

let stats_json s =
  Printf.sprintf
    {|{"served":%d,"settled":%d,"expired":%d,"aborted":%d,"busy":%d,"protocol_errors":%d,"connections":%d,"epochs":%d,"aged_out":%d,"cache_size":%d,"drained":%b}|}
    s.served s.settled s.expired s.aborted s.busy s.protocol_errors s.connections
    s.epochs s.aged_out s.cache_size s.drained

(* -- connections -- *)

type conn = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  mutable greeted : bool;
  out : Bytebuf.t;  (** encoded frames awaiting the socket *)
  mutable closing : bool;  (** close once [out] is flushed *)
  mutable alive : bool;
}

type srv = {
  cfg : config;
  metrics : Metrics.t;
  recorders : Scheduler.recorders;
  cache : Cache.t;
  pending : (conn * int * string) Admission.t;
  trace_ch : out_channel option;
  ring : Ring.t option;
  (* the trace-mining feedback loop: a scoreboard accumulated across
     self-drains, and a bounded last-seen spec per shape so pin
     candidates that already aged out can be pre-warmed *)
  mutable board : Mine.t;
  stash : (string, Exchange.Spec.t) Hashtbl.t;
  (* the next wire session id, which is also the number of requests
     processed so far (the daemon loop is single-threaded) *)
  mutable next_session : int;
  (* submissions that never made a session; the scheduler counts the
     rest of the aborted ones *)
  mutable parse_failures : int;
  (* registered once, bumped per event; the series the cache and the
     ring own are registered as reads in [run] *)
  requests_c : Metrics.counter;
  busy_c : Metrics.counter;
  proto_c : Metrics.counter;
  conns_c : Metrics.counter;
  mine_ticks_c : Metrics.counter;
  mine_sessions_c : Metrics.counter;
  mine_pins_c : Metrics.counter;
  mine_prewarms_c : Metrics.counter;
  mine_denies_c : Metrics.counter;
}

let send conn resp = Bytebuf.add_string conn.out (Frame.encode (Wire.encode_response resp))

let try_flush conn =
  if conn.alive then begin
    (if Bytebuf.length conn.out > 0 then
       try Bytebuf.write conn.out conn.fd with
       | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
       | Unix.Unix_error _ -> conn.alive <- false);
    if conn.alive && conn.closing && Bytebuf.length conn.out = 0 then conn.alive <- false
  end

let has_output conn = conn.alive && Bytebuf.length conn.out > 0

let protocol_error srv conn reason =
  Metrics.incr srv.proto_c;
  send conn (Wire.Refused { id = None; reason });
  conn.closing <- true

(* -- snapshots and aging -- *)

let write_snapshot srv =
  Option.iter
    (fun path ->
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun ch ->
          output_string ch (Metrics.to_text srv.metrics));
      Sys.rename tmp path)
    srv.cfg.snapshot_path

(* The series whose state the cache and the ring own, registered as
   reads so every render shows their current value. The ring's are
   deterministic here, unlike the batch scheduler's volatile variants:
   the select loop commits sessions in wire order on one thread. *)
let register_reads metrics cache ring =
  let cache_gauge help name read =
    Metrics.gauge_read metrics ~help name (fun () -> float_of_int (read cache))
  in
  cache_gauge "current protocol-cache epoch" "serve_cache_epoch" Cache.epoch;
  cache_gauge "resident protocol-cache entries" "serve_cache_size" Cache.size;
  cache_gauge "cache entries pinned by the trace-mining policy" "serve_cache_pinned"
    Cache.pinned_count;
  Metrics.counter_read metrics ~help:"cache epoch ticks" "daemon_epochs_total" (fun () ->
      Cache.epoch cache);
  Metrics.counter_read metrics ~help:"cache entries swept by epoch aging"
    "serve_cache_aged_out_total" (fun () -> Cache.aged_out cache);
  Metrics.counter_read metrics ~help:"trace-ring records evicted on wrap or refused oversized"
    "obs_ring_records_dropped_total" (fun () ->
      match ring with Some ring -> Ring.records_dropped ring | None -> 0);
  Option.iter
    (fun ring ->
      Metrics.gauge_read metrics ~help:"trace-ring live bytes" "obs_ring_bytes" (fun () ->
          float_of_int (Ring.bytes_resident ring)))
    ring

let epoch_tick srv =
  ignore (Cache.advance_epoch ~max_idle:srv.cfg.max_idle_epochs srv.cache : int);
  write_snapshot srv

(* The feedback tick: self-drain the ring (the same consuming window
   the [trace] wire request reads), fold the kept sessions into the
   running scoreboard, then apply the policy — pin or pre-warm shapes
   that repeatedly retried/expired, deny shapes whose tails showed §5
   exposure violations. Deterministic: the scoreboard is a pure fold
   and the thresholds come from config, so the same request stream
   always produces the same pins and denies. *)
let mine_tick srv =
  match srv.ring with
  | None -> ()
  | Some ring ->
    Metrics.incr srv.mine_ticks_c;
    (match Ring.decode (Ring.drain ring) with
    | Error _ -> ()  (* a corrupt self-dump would be a Ring bug; never kill the daemon over it *)
    | Ok (sessions, _) ->
      if sessions <> [] then begin
        Metrics.incr ~by:(List.length sessions) srv.mine_sessions_c;
        srv.board <-
          List.fold_left
            (fun board (s : Ring.session) -> Mine.add_views board s.Ring.s_views)
            srv.board sessions
      end);
    if srv.cfg.mine_deny > 0 then begin
      let already = Cache.denied srv.cache in
      List.iter
        (fun hex ->
          if not (List.mem hex already) then begin
            Cache.deny srv.cache hex;
            Metrics.incr srv.mine_denies_c
          end)
        (Mine.deny_candidates ~min_violations:srv.cfg.mine_deny srv.board)
    end;
    if srv.cfg.mine_pin > 0 then begin
      let denied = Cache.denied srv.cache in
      List.iter
        (fun hex ->
          if not (List.mem hex denied) then
            if Cache.pin srv.cache hex then Metrics.incr srv.mine_pins_c
            else
              (* hot but not resident (aged out or evicted): pre-warm
                 from the last spec seen with this shape, if any *)
              match Hashtbl.find_opt srv.stash hex with
              | None -> ()
              | Some spec -> (
                match Cache.prewarm srv.cache spec with
                | `Warmed -> Metrics.incr srv.mine_prewarms_c
                | `Hit | `Failed _ -> ()))
        (Mine.pin_candidates ~min_incidents:srv.cfg.mine_pin srv.board)
    end

(* -- request processing -- *)

let zero_result ~id ~status ~exit_code ~reason =
  Wire.Result
    {
      id;
      status;
      exit_code;
      cache_hit = false;
      ticks = 0;
      events = 0;
      attempts = 0;
      exposure_peak = 0;
      exposure_ticks = 0;
      exposure_violations = 0;
      reason;
    }

(* The answer to a closed session. *)
let result_of ~id (session : Session.t) =
  let status, exit_code, reason =
    match session.Session.status with
    | Session.Settled -> ("settled", 0, None)
    | Session.Expired -> ("expired", 1, None)
    | Session.Aborted r -> ("aborted", 1, Some r)
    | Session.Queued | Session.Synthesizing | Session.Running ->
      ("error", 2, Some "internal: session did not reach a terminal state")
  in
  Wire.Result
    {
      id;
      status;
      exit_code;
      cache_hit = session.Session.cache_hit;
      ticks = session.Session.ticks;
      events = session.Session.events;
      attempts = session.Session.attempts;
      exposure_peak = session.Session.exposure_peak;
      exposure_ticks = session.Session.exposure_ticks;
      exposure_violations = session.Session.exposure_violations;
      reason;
    }

(* The trace of a kept request, written after it was answered: the
   [daemon.request] root span, elaboration again with a live sink for
   the parse spans, then the session part rebuilt under the root from
   the capture. A request that never made a session (a parse failure,
   kept only when sampled) has no capture and ends after the parse
   spans. *)
let trace_request srv ~n ~id ~spec captured =
  let trace = Obs.create ~session:n () in
  Obs.with_span trace ~phase:"daemon" "daemon.request" (fun root ->
      Obs.attr trace root "wire_id" (Obs.Int id);
      ignore
        (Trust_lang.Elaborate.from_string ~obs:trace ~parent:root ~file:"<wire>" spec
          : (Exchange.Spec.t, string) result);
      Option.iter (Scheduler.rebuild ~parent:root srv.cfg.scheduler srv.cache trace) captured);
  trace

let process_submit srv conn ~id ~spec =
  let n = srv.next_session in
  srv.next_session <- n + 1;
  let tracing = srv.trace_ch <> None || srv.ring <> None in
  let sampled = tracing && Scheduler.session_sampled srv.cfg.scheduler n in
  (* every request runs untraced; a kept one is traced afterwards *)
  let resp, captured =
    match Trust_lang.Elaborate.from_string ~file:"<wire>" spec with
    | Error e ->
      srv.parse_failures <- srv.parse_failures + 1;
      (zero_result ~id ~status:"error" ~exit_code:2 ~reason:(Some e), None)
    | Ok parsed ->
      (* optional fault injection (CI smokes, soak tests), the batch
         Service rule *)
      let defectors = Trust_sim.Harness.injected_defectors ~every:srv.cfg.defect_every n parsed in
      let session = Session.make ~id:n ~defectors parsed in
      let captured =
        if tracing then
          Scheduler.process_traced ~recorders:srv.recorders ~sampled srv.cfg.scheduler srv.cache
            session
        else begin
          Scheduler.process_one ~recorders:srv.recorders srv.cfg.scheduler srv.cache session;
          None
        end
      in
      (* remember the last spec per shape (bounded) so the mining tick
         can pre-warm a pin candidate that already aged out of the cache *)
      if srv.cfg.mine_every > 0 then begin
        if Hashtbl.length srv.stash >= 4096 then Hashtbl.reset srv.stash;
        Hashtbl.replace srv.stash (Shape.hash_hex parsed) parsed
      end;
      (result_of ~id session, captured)
  in
  (if tracing then
     (* an unsampled parse failure never makes a session, so tail rules
        cannot see it — the refused Result already tells the client *)
     match
       Scheduler.retain ~recorders:srv.recorders ?ring:srv.ring ~sampled captured ~trace:(fun () ->
           trace_request srv ~n ~id ~spec captured)
     with
     | None -> ()
     | Some trace ->
       (* every kept session — head-sampled or tail-promoted — reaches
          the durable sink at close; the ring is the live (evictable)
          introspection window over the same set *)
       Option.iter
         (fun ch ->
           output_string ch (Obs.export Obs.Jsonl [ trace ]);
           flush ch)
         srv.trace_ch);
  (* a deny-listed shape surfaces as the wire's refused answer — the
     client sees the TM001 diagnostic with the transport exit contract,
     distinct from an ordinary aborted result *)
  let resp =
    match resp with
    | Wire.Result { id; reason = Some r; _ } when String.starts_with ~prefix:"denied:" r ->
      Wire.Refused { id = Some id; reason = r }
    | resp -> resp
  in
  send conn resp;
  Metrics.incr srv.requests_c;
  let served = srv.next_session in
  if srv.cfg.epoch_every > 0 && served mod srv.cfg.epoch_every = 0 then epoch_tick srv;
  if srv.cfg.mine_every > 0 && served mod srv.cfg.mine_every = 0 then mine_tick srv

(* The stats answer, read from the registry and the cache: the daemon
   keeps no tally of its own beyond the submissions that never made a
   session. *)
let snapshot ?(drained = false) srv =
  let sessions = Scheduler.tally srv.recorders in
  {
    served = Metrics.value srv.requests_c;
    settled = sessions.Scheduler.settled;
    expired = sessions.Scheduler.expired;
    aborted = sessions.Scheduler.aborted + srv.parse_failures;
    busy = Metrics.value srv.busy_c;
    protocol_errors = Metrics.value srv.proto_c;
    connections = Metrics.value srv.conns_c;
    epochs = Cache.epoch srv.cache;
    aged_out = Cache.aged_out srv.cache;
    cache_size = Cache.size srv.cache;
    drained;
  }

let handle_request srv conn = function
  | Wire.Hello { version } ->
    if conn.greeted then protocol_error srv conn "duplicate hello"
    else if version <> Wire.version then
      protocol_error srv conn
        (Printf.sprintf "unsupported protocol version %d (server speaks %d)" version
           Wire.version)
    else begin
      conn.greeted <- true;
      send conn (Wire.Welcome { version = Wire.version; server = srv.cfg.banner })
    end
  | _ when not conn.greeted -> protocol_error srv conn "expected hello before any request"
  | Wire.Ping { id } -> send conn (Wire.Pong { id })
  | Wire.Metrics { id } ->
    send conn (Wire.Text { id; kind = "metrics"; text = Metrics.to_text srv.metrics })
  | Wire.Stats { id } ->
    send conn (Wire.Text { id; kind = "stats"; text = stats_json (snapshot srv) })
  | Wire.Trace { id } ->
    (* drain semantics: each trace request returns the records kept
       since the previous one, base64ed over the ordinary text frame;
       with the ring disabled the reply is a valid zero-shard dump *)
    let dump = match srv.ring with Some ring -> Ring.drain ring | None -> Ring.empty_dump in
    send conn (Wire.Text { id; kind = "ring"; text = B64.encode dump })
  | Wire.Submit { id; spec } ->
    if not (Admission.try_push srv.pending (conn, id, spec)) then begin
      Metrics.incr srv.busy_c;
      send conn (Wire.Busy { id })
    end

let handle_event srv conn = function
  | Frame.Oversized announced ->
    protocol_error srv conn
      (Printf.sprintf "oversized frame: %d bytes announced (max %d)" announced
         srv.cfg.max_frame)
  | Frame.Frame payload -> (
    match Wire.decode_request payload with
    | Error e -> protocol_error srv conn e
    | Ok req -> handle_request srv conn req)

let handle_readable srv conn buf =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> conn.alive <- false
  | 0 -> conn.alive <- false
  | n -> List.iter (handle_event srv conn) (Frame.feed conn.decoder buf n)

let rec drain_pending srv =
  match Admission.pop srv.pending with
  | None -> ()
  | Some (conn, id, spec) ->
    (* a client that hung up forfeits its queued work; everyone else
       gets a full run and a response *)
    if conn.alive then process_submit srv conn ~id ~spec;
    drain_pending srv

(* -- listeners -- *)

(* The socket file appears only once it accepts: bind and listen on a
   temporary name in the same directory, then rename it into place, so
   a client that waits for the file never sees a socket that refuses
   connections. The temporary name never outlives startup. *)
let listen_unix path =
  let tmp = path ^ ".tmp" in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX tmp);
     Unix.listen fd 128;
     Unix.rename tmp path
   with e ->
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  fd

let listen_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> raise Not_found
      | h -> h.Unix.h_addr_list.(0))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let accept_all srv listener conns =
  let rec go () =
    match Unix.accept listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      Metrics.incr srv.conns_c;
      conns :=
        {
          fd;
          decoder = Frame.create ~max_frame:srv.cfg.max_frame ();
          greeted = false;
          out = Bytebuf.create 256;
          closing = false;
          alive = true;
        }
        :: !conns;
      go ()
  in
  go ()

(* -- the loop -- *)

let run ?(stop = Atomic.make false) ?metrics cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Server.run: no listener configured";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let cache = Cache.create ~capacity:cfg.cache_capacity cfg.policy in
  let ring = if cfg.trace_ring > 0 then Some (Ring.create ~capacity:cfg.trace_ring ()) else None in
  register_reads metrics cache ring;
  let srv =
    {
      cfg;
      metrics;
      recorders = Scheduler.recorders metrics;
      cache;
      pending = Admission.create ~bound:cfg.max_pending ();
      trace_ch = Option.map open_out cfg.trace_path;
      ring;
      board = Mine.empty;
      stash = Hashtbl.create 256;
      next_session = 0;
      parse_failures = 0;
      requests_c =
        Metrics.counter metrics ~help:"wire submissions processed" "daemon_requests_total";
      busy_c =
        Metrics.counter metrics ~help:"submissions bounced by admission control"
          "daemon_busy_total";
      proto_c =
        Metrics.counter metrics ~help:"handshake, framing and decode failures"
          "daemon_protocol_errors_total";
      conns_c = Metrics.counter metrics ~help:"connections accepted" "daemon_connections_total";
      mine_ticks_c =
        Metrics.counter metrics ~help:"trace-mining feedback ticks (self-drain + policy)"
          "obs_mine_ticks_total";
      mine_sessions_c =
        Metrics.counter metrics ~help:"kept sessions folded into the mining scoreboard"
          "obs_mine_sessions_total";
      mine_pins_c =
        Metrics.counter metrics ~help:"resident cache entries pinned by the mining policy"
          "obs_mine_pins_total";
      mine_prewarms_c =
        Metrics.counter metrics ~help:"evicted hot shapes pre-warmed (synthesized and pinned)"
          "obs_mine_prewarms_total";
      mine_denies_c =
        Metrics.counter metrics ~help:"shapes deny-listed at admission by the mining policy"
          "obs_mine_denies_total";
    }
  in
  let listeners =
    (match cfg.unix_path with None -> [] | Some p -> [ listen_unix p ])
    @ (match cfg.tcp with None -> [] | Some hp -> [ listen_tcp hp ])
  in
  let conns = ref [] in
  let buf = Bytes.create 65536 in
  let sweep_dead () =
    conns :=
      List.filter
        (fun c ->
          if c.alive then true
          else begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            false
          end)
        !conns
  in
  while not (Atomic.get stop) do
    sweep_dead ();
    let rd = listeners @ List.map (fun c -> c.fd) !conns in
    let wr = List.filter_map (fun c -> if has_output c then Some c.fd else None) !conns in
    (match Unix.select rd wr [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter
        (fun fd ->
          if List.memq fd listeners then accept_all srv fd conns
          else
            match List.find_opt (fun c -> c.fd == fd) !conns with
            | Some conn when conn.alive -> handle_readable srv conn buf
            | Some _ | None -> ())
        readable;
      drain_pending srv;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd == fd) !conns with
          | Some conn -> try_flush conn
          | None -> ())
        writable;
      (* opportunistic flush for responses generated this round *)
      List.iter (fun c -> if has_output c then try_flush c) !conns)
  done;
  (* -- graceful drain: stop accepting, finish admitted work, flush -- *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) cfg.unix_path;
  drain_pending srv;
  let deadline = Unix.gettimeofday () +. 5. in
  let rec flush_all () =
    sweep_dead ();
    let waiting = List.filter has_output !conns in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) !conns with
            | Some conn -> try_flush conn
            | None -> ())
          writable);
      flush_all ()
    end
  in
  flush_all ();
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  write_snapshot srv;
  Option.iter close_out srv.trace_ch;
  snapshot ~drained:true srv
