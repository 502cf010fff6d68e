(** The blocking client half of the wire protocol, shared by
    [trustseq submit], the load generator and the integration tests. *)

type t

val parse_addr : string -> (Unix.sockaddr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (treated as a
    Unix socket). *)

val connect : ?timeout:float -> string -> (t, string) result
(** Connect and complete the [hello]/[welcome] handshake. [timeout]
    (default 10s) bounds each receive. Errors are human-readable
    transport or protocol reasons. *)

val server : t -> string
(** The banner from the welcome. *)

val request : t -> Wire.request -> (Wire.response, string) result
(** Send one request and wait for its response frame. *)

val submit : t -> id:int -> spec:string -> (Wire.response, string) result
(** [request] with a [Submit]; the response is [Result], [Busy], or
    [Refused]. *)

val trace : t -> id:int -> (string, string) result
(** [request] with a [Trace], unwrapping the [text]/["ring"] frame and
    its base64 transport: the raw binary ring dump accumulated since
    the previous drain, ready for {!Trust_obs.Ring.decode}. One answer
    carries what fits one frame; {!trace_sessions} drains the rest. *)

val trace_sessions :
  t -> (Trust_obs.Ring.session list * Trust_obs.Ring.stats, string) result
(** Drain the daemon's ring whole: {!trace} requests (ids 1, 2, ...)
    until an answer carries no record, decoded as one by
    {!Trust_obs.Ring.collect}. *)

val close : t -> unit
