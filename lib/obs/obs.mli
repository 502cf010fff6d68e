(** Span-based structured tracing for the whole pipeline: parse →
    elaborate → lint → reduce → route → simulate → verify → audit.

    {2 Determinism contract}

    Every exported quantity is {e virtual}: span ids, parents and the
    [start]/[stop]/[vt] timestamps come from a per-trace monotonic
    counter that ticks once per span begin, span end and event. Two
    runs over the same input produce byte-identical exports, and —
    because each serve session owns its own trace and clock — so do
    runs at any [--jobs]. Spans carry no wall-clock instants at all;
    wall time lives outside the trace (the same quarantine
    {!Trust_serve.Metrics} applies to its volatile gauges and
    {!Trust_serve.Service.wall_line} to throughput). Facts that depend
    on domain scheduling rather than on
    the seed (e.g. which of two racing sessions took the protocol-cache
    miss) must be recorded with {!volatile_attr}, which exporters skip.

    {2 Cost contract}

    The {!null} sink is the default everywhere and is allocation-free:
    {!span} returns {!none} without allocating, {!event}/{!attr} return
    immediately. Call sites that would build an attribute list guard it
    with {!enabled} so a disabled trace never allocates on hot paths. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type t
(** A sink: either the null sink or one live trace. *)

type handle
(** A span under construction; {!none} when the sink is {!null}. *)

val null : t
val none : handle

val create : ?session:int -> unit -> t
(** A fresh live trace. [session] (default 0) becomes the [pid] of the
    Chrome export and the ["session"] field of the JSONL export. *)

val enabled : t -> bool
(** [false] exactly for {!null} — use it to guard attribute-building. *)

val session : t -> int

val clock : t -> int
(** The trace's current virtual time (0 for {!null}) — the binary ring
    codec persists it so decoded traces re-render identically. *)

val span : t -> ?parent:handle -> phase:string -> string -> handle
(** Open a span. [phase] names the pipeline stage (["parse"],
    ["reduce"], ["simulate"], …); the span name can be more specific
    (["reduce.worklist"]). A [parent] of {!none} makes a root span. *)

val finish : t -> handle -> unit
(** Close the span at the current virtual time. Idempotent in effect:
    a second finish overwrites the stop timestamp. *)

val with_span : t -> ?parent:handle -> phase:string -> string -> (handle -> 'a) -> 'a
(** [span] / run / [finish], closing the span on exceptions too. *)

val event : t -> handle -> ?attrs:(string * value) list -> string -> unit
(** Record an instantaneous event on a span at the current virtual
    time. No-op on {!null} — but guard attribute construction with
    {!enabled} to keep the disabled path allocation-free. *)

val attr : t -> handle -> string -> value -> unit
(** Attach a deterministic attribute (exported). *)

val volatile_attr : t -> handle -> string -> value -> unit
(** Attach a scheduling-dependent attribute: kept on the span for
    programmatic inspection, {e never} exported. *)

val first_root : t -> handle
(** The first root span of the trace ({!none} when there is none, or
    the sink is {!null}) — lets late phases (e.g. lane placement after
    the pool join) parent onto the session root. *)

(** {2 Batch registry (serve layer)}

    One trace per session, created from whichever domain runs the
    session. Slots are written by exactly one domain each, and the
    team's completion barrier publishes them — the same ownership
    discipline the scheduler already applies to
    {!Trust_serve.Session.t} fields. *)

type batch

val no_batch : batch
(** The disabled registry: {!session_trace} returns {!null}. *)

val batch : enabled:bool -> sessions:int -> batch

val batch_enabled : batch -> bool

val session_trace : batch -> int -> t
(** The trace for session [i], created on first use. Out-of-range ids
    (and the disabled registry) return {!null}. *)

val batch_traces : batch -> t list
(** Every created trace, in session order — deterministic input for
    {!export}. *)

(** {2 Span views}

    A read-only snapshot of a recorded trace: what the exporters see,
    exposed so the analysis layer ({!Analysis}) can compute statistics,
    critical paths and diffs over in-memory traces and re-parsed JSONL
    exports with one code path. *)

type event_view = { ev_name : string; ev_vt : int; ev_attrs : (string * value) list }

type span_view = {
  view_session : int;
  view_id : int;
  view_parent : int option;
  view_phase : string;
  view_name : string;
  view_start : int;
  view_stop : int;  (** [-1] while the span is still open *)
  view_attrs : (string * value) list;  (** deterministic attrs only *)
  view_events : event_view list;
}

val views : t -> span_view list
(** Spans in creation order ([[]] for {!null}). Volatile attrs are
    excluded, exactly as in every exporter. *)

val of_views : session:int -> clock:int -> span_view list -> t
(** Rebuild a live trace from span views (in creation order) — the
    inverse of {!views}, used by the binary ring decoder ({!Ring}) so
    the exporters re-emit decoded traces byte-compatibly. Volatile
    attrs are absent by construction; no exporter rendered them
    anyway. *)

(** {2 Exporters} *)

type format = Jsonl | Chrome | Tree | Folded

val format_of_string : string -> format option
(** ["jsonl"], ["chrome"], ["tree"] or ["folded"], case-insensitively. *)

val format_names : string list
(** The accepted format names, in declaration order — for error
    messages ("expected one of: …"). *)

val render_folded : span_view list -> string
(** The folded-stack (flamegraph) rendering over span views: one line
    per span, [root;child;…;span N] where [N] is the span's {e self}
    virtual time (duration minus the durations of its children) and
    frames are [;]-joined span names with literal [;], [\ ] and
    newlines escaped. Lines follow creation order; summing the counts
    of one session's lines reproduces its root span durations, which
    is what flamegraph tools rely on. *)

val export : ?producer:string -> format -> t list -> string
(** Render traces (null sinks are skipped, order preserved).

    [Jsonl]: one JSON object per line — an optional leading
    [{"type":"meta","producer":…}] when [producer] is given, then for
    each span a [{"type":"span",…}] line carrying [session], [id],
    [parent], [phase], [name], [start], [stop] and [attrs], followed by
    its [{"type":"event",…}] lines.

    [Chrome]: a Chrome trace-event JSON array (loadable in Perfetto /
    [chrome://tracing]): one [ph:"X"] complete event per span with
    [ts]/[dur] in virtual time and [pid] the session id, one [ph:"i"]
    instant event per span event, plus [ph:"M"] process metadata naming
    the producer.

    [Tree]: a human-readable indented span tree with attributes and
    events inline. *)
