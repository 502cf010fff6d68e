(** The trustseq daemon: a long-lived exchange service.

    One process, one {!Trust_serve.Cache} and one
    {!Trust_serve.Metrics} registry, serving spec submissions over the
    length-prefixed {!Wire} protocol on a Unix socket and/or a TCP
    listener. The event loop is a single [select] thread: connections
    are nonblocking, input is reassembled per-connection by a
    {!Frame.decoder}, and each admitted submission runs synchronously
    and untraced through the same lifecycle (admission lint, cached
    synthesis, engine run, audit) a batch session gets. When tracing,
    a kept request's trace is written after it was answered: a
    [daemon.request] root span, elaboration again with a live sink,
    and the session part under it, rebuilt by
    {!Trust_serve.Scheduler.rebuild} from what the untraced run
    captured.

    {2 Admission and backpressure}

    A select round may deliver many pipelined requests at once; at most
    [max_pending] are queued for the processing pass and the rest are
    answered [busy] immediately. Nothing is ever buffered without
    bound: input is capped by [max_frame], the work queue by
    [max_pending], and output buffers drain through the same select
    loop.

    {2 Cache aging}

    Every [epoch_every] served requests the daemon advances the cache
    epoch ({!Trust_serve.Cache.advance_epoch}), sweeping entries idle
    for [max_idle_epochs] — the Zipf long tail ages out while
    heavy-hitter and catalog shapes stay warm. Each tick rewrites the
    metrics snapshot (atomic rename) when [snapshot_path] is set.

    {2 Metrics}

    What the cache and the ring own (epoch, residency, pins, aged-out
    entries, ring bytes and drops) is registered as reads that run when
    the registry renders, so every [metrics] answer is current. {!stats}
    reads the same registry and the cache.

    {2 Graceful drain}

    When [stop] becomes true (the CLI sets it from SIGTERM/SIGINT) the
    daemon stops accepting, processes everything already admitted,
    flushes every response buffer (bounded by a few seconds), writes a
    final snapshot and returns with [drained = true]. In-flight clients
    get their answers; only connections that were mid-frame lose an
    unparseable prefix they never completed. *)

type config = {
  unix_path : string option;  (** listen on this Unix socket path *)
  tcp : (string * int) option;  (** and/or on host, port *)
  policy : Trust_serve.Cache.policy;
  cache_capacity : int;
  scheduler : Trust_serve.Scheduler.config;
      (** per-request engine knobs, and the head-sampling rate:
          [scheduler.sample_rate] picks the wire session ids kept,
          per {!Trust_serve.Scheduler.session_sampled} under the
          scheduler seed ([serve --trace-sample]). Every request runs
          untraced on the compiled fast path; at close
          {!Trust_serve.Scheduler.retain} keeps the sampled ones and
          promotes any session with an exposure violation, retry,
          expiry or lint refusal, and each kept trace is rebuilt from
          the run's capture — the same bytes whichever rule kept it. *)
  max_pending : int;  (** admission bound; excess submissions get [busy] *)
  max_frame : int;  (** wire frame bound, bytes *)
  epoch_every : int;  (** served requests per cache epoch tick *)
  max_idle_epochs : int;  (** sweep entries idle this many epochs *)
  snapshot_path : string option;  (** metrics exposition, atomically rewritten *)
  trace_path : string option;
      (** durable trace sink: every {e kept} session (head-sampled or
          tail-promoted) appended as JSONL at close *)
  trace_ring : int;
      (** live trace-ring capacity in bytes ([0] disables tracing
          entirely when [trace_path] is also unset); drained by the
          [trace] wire request *)
  mine_every : int;
      (** every N served requests, self-drain the ring, fold the kept
          sessions into the {!Trust_obs.Mine} scoreboard and apply the
          feedback policy (pin/pre-warm and deny below); [0] (the
          default) disables the loop. The drain consumes the same
          window the [trace] wire request reads. *)
  mine_pin : int;
      (** pin/pre-warm shapes with at least this many retry or expiry
          incidents on the scoreboard (and no exposure violations);
          [0] disables pinning *)
  mine_deny : int;
      (** deny-list shapes whose kept sessions include at least this
          many §5 exposure-violating runs; refused submissions answer
          [refused] with the [TM001] diagnostic. [0] disables. *)
  defect_every : int;
      (** fault injection for smokes and soaks: wire session ids
          (counted from 0) get defectors per
          {!Trust_sim.Harness.injected_defectors} — the rule batch
          [--defect-every] applies; [0] (the default) injects nothing *)
  banner : string;  (** the [server] field of the welcome *)
}

val default : config
(** No listeners (callers must set at least one), default policy,
    {!Trust_serve.Scheduler.default_config} with [sample_rate = 0.01],
    capacity 4096, 64 pending, 1 MiB frames, epoch every 256 requests,
    sweep after 2 idle epochs. Tracing is on by default at production
    cost: a 1 MiB ring, 1% head sampling, tail keeps always. *)

type stats = {
  served : int;  (** submissions fully processed *)
  settled : int;
  expired : int;
  aborted : int;  (** includes parse/elaborate rejections, the daemon's one own count *)
  busy : int;  (** submissions bounced by admission control *)
  protocol_errors : int;  (** handshake/framing/decode failures *)
  connections : int;  (** accepted over the lifetime *)
  epochs : int;  (** cache epoch ticks *)
  aged_out : int;  (** cache entries swept by aging *)
  cache_size : int;  (** resident entries (at exit, on the drain line) *)
  drained : bool;  (** the loop exited through the drain path *)
  rss_kb : int;  (** the daemon process's resident set ({!Procstat.rss_kb}) *)
  peak_rss_kb : int;  (** and its peak ({!Procstat.peak_rss_kb}) *)
}

val run : ?stop:bool Atomic.t -> ?metrics:Trust_serve.Metrics.t -> config -> stats
(** Serve until [stop] is set (an internal atomic nobody sets, i.e.
    forever, when omitted). Creates a fresh metrics registry when none
    is given, and registers every daemon and scheduler family in it at
    startup (so an idle snapshot lists them at zero). A [trace]
    answer carries the ring's oldest whole sessions that fit one
    default-size frame after base64, and leaves the rest for the next
    one.
    @raise Invalid_argument when no listener is configured. *)

val stats_json : stats -> string
(** One-line JSON of the counters above. *)
