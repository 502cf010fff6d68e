(** The production trace sink: a fixed-size, sharded binary ring.

    Kept sessions are committed whole at session close — a [begin]
    record (session id, final virtual clock, keep reason), one compact
    length-prefixed record per span and per event, then an [end] —
    into preallocated per-domain byte buffers. When the ring wraps,
    {e whole} records are evicted oldest-first before a new one lands,
    so a dump never contains a torn record; the decoder's only
    partiality is a session whose [begin] was evicted, which it skips
    (the "newest complete suffix" contract, pinned by test_ring).

    Writers are kept apart by sharding: each shard is preallocated at
    {!create} and a domain adopts one for life on first use. Each
    shard also has a lock held for a whole session commit, so any
    shard count is safe at any number of writer domains; sized to the
    writer count, every lock is uncontended. Committing a session
    allocates nothing beyond the span views of that one kept session;
    unsampled sessions never reach this module.

    The byte layout (LEB128 varints, zigzag for signed fields,
    length-prefixed strings, little-endian IEEE doubles; dump header
    ["TSR1"]) is documented in docs/OBS.md and pinned by the
    round-trip property tests: decoding a dump and re-rendering
    through {!export} is byte-compatible with exporting the original
    in-memory traces. *)

type t

val create : ?shards:int -> capacity:int -> unit -> t
(** A ring of [shards] preallocated buffers (default 1) splitting
    [capacity] bytes between them, with a floor of 1 KiB per shard.
    Size [shards] to the number of writer domains ([--jobs]) to keep
    commits uncontended; fewer shards are safe, their writers take
    turns. The daemon's single-threaded loop uses one. *)

(** {2 Recording} *)

(** Why a session was committed: head-sampled, or promoted by a
    tail-based keep rule at session close. *)
type keep = Sampled | Violation | Retry | Expiry | Lint

val keep_label : keep -> string
(** ["sampled"], ["violation"], ["retry"], ["expiry"], ["lint"]. *)

val record : t -> keep:keep -> Obs.t -> int
(** Commit one finished session's trace into the calling domain's
    shard. Returns the number of records dropped to make room (0 when
    nothing wrapped): oldest records are evicted whole until the
    session fits, and a session larger than the whole shard is refused
    outright — atomically, with every refused record counted — rather
    than half-written. The null sink commits nothing and returns 0. *)

(** {2 Introspection (read after writers are quiescent)} *)

val scratch_bytes : unit -> int
(** Size of the calling domain's encode scratch, for tests: a commit
    leaves it no larger than the larger of 4096 bytes and the shard
    size, whatever the session's size. *)

val shard_count : t -> int
val capacity : t -> int
(** Total preallocated bytes across shards. *)

val bytes_resident : t -> int
(** Live (un-evicted, un-drained) bytes across shards — the
    [obs_ring_bytes] gauge. *)

val records_written : t -> int
val records_dropped : t -> int
(** Lifetime commit/drop counters across shards; monotone, so counter
    deltas survive {!drain}. *)

val sessions_recorded : t -> int

(** {2 Dumps} *)

val dump : t -> string
(** The linearized live region — magic ["TSR1"], shard count, then per
    shard its lifetime written/dropped counters and its records oldest
    first. Leaves the ring intact. *)

val drain : ?max_bytes:int -> t -> string
(** {!dump}, then mark what it carried consumed (lifetime counters are
    preserved). The daemon's [trace] wire request is a drain: each
    frame returns only records committed since the last. With
    [max_bytes] the dump stays within that size: it carries each
    shard's oldest whole sessions while they fit and leaves the rest
    for the next drain. A session larger than the whole budget is
    consumed as dropped, so it cannot block the ones behind it. *)

val empty_dump : string
(** A valid zero-shard dump — what a daemon with tracing disabled
    returns for [trace]. *)

(** {2 Decoding} *)

type session = {
  s_id : int;
  s_clock : int;  (** the trace's final virtual clock *)
  s_keep : keep;
  s_views : Obs.span_view list;  (** creation order, events re-attached *)
}

type stats = {
  d_shards : int;
  d_written : int;  (** lifetime records committed, summed over shards *)
  d_dropped : int;  (** lifetime records evicted/refused, summed *)
  d_sessions : int;  (** complete sessions decoded from this dump *)
  d_skipped : int;
      (** wrapped sessions the newest-complete-suffix decode had to
          discard (their begin record was evicted on wrap) *)
}

val decode : string -> (session list * stats, string) result
(** Parse a dump. Sessions are returned sorted by id — a canonical
    order, so decodes of the same session set are byte-identical
    however sessions were sharded across domains. Sessions whose
    [begin] record was evicted on wrap are skipped whole; any torn or
    unparseable byte sequence is an [Error] (the writer never produces
    one). *)

val collect : (unit -> (string, string) result) -> (session list * stats, string) result
(** Drain one ring through successive bounded dumps: call [next] until
    a dump carries no record, and decode them as one — every session
    sorted by id, the skipped counts summed, the shard and lifetime
    counters of the last. A dump that carries only the tail of a
    session evicted on wrap decodes to no session but one skipped, and
    draining goes on past it. The first [next] or decode error is the
    result. *)

val to_trace : session -> Obs.t
(** Rebuild a live trace via {!Obs.of_views} — input for the analysis
    layer or the exporters. *)

val export : ?producer:string -> Obs.format -> session list -> string
(** Render decoded sessions through the unchanged exporters —
    byte-compatible with exporting the original in-memory traces. *)
