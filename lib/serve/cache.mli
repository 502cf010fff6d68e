(** The protocol cache: memoized synthesis.

    Synthesizing a protocol for a spec — feasibility analysis by graph
    reduction, the indemnity rescue loop when the bare spec is stuck,
    sequencing and per-party script generation — is pure in the spec
    and the synthesis policy. Workload generators emit structurally
    identical specs over and over (every [chain ~brokers:2] draw is the
    same spec), so the service memoizes synthesis keyed by the
    {!Shape.encode} canonical form.

    The correctness invariant, checked when the policy sets [verify]
    (and exercised by the property tests): {e a cache hit is equal to
    fresh synthesis} — same split spec, indemnity plan and per-party
    scripts. Behaviours are single-run stateful machines and are
    therefore {e never} cached; callers rebuild them per run with
    {!Trust_sim.Harness.behaviors_for}. *)

open Exchange

type policy = {
  mode : Trust_sim.Harness.mode;
  shared : bool;  (** enable the shared-agent reduction rule *)
  rescue : bool;  (** rescue infeasible specs with indemnities (§6) *)
  verify : bool;  (** re-synthesize on every hit and compare *)
}

val default_policy : policy
(** Lockstep, no shared agents, rescue on, verify off. *)

type entry = {
  split_spec : Spec.t;  (** the spec after the plan's indemnity splits *)
  plan : Trust_core.Indemnity.plan option;  (** the rescue plan, when one was needed *)
  protocol : Trust_core.Protocol.t;
  compiled : Trust_core.Compile.t option;
      (** the flat instruction plan executed by the allocation-free
          [Trust_sim.Hotpath] runtime on the serve path; always [Some]
          (every spec compiles, acceptability overrides included).
          Immutable and shared read-only across pool domains. *)
}

exception Divergence of string
(** Raised (with the spec's shape hash) when verification finds a hit
    that differs from fresh synthesis — a cache-correctness bug — or
    when the {!Trust_analyze.Verifier} safety pass finds a protection
    exposure in the cached entry's execution sequence (the message then
    also carries the per-party exposure explanation). *)

type t

val create : ?capacity:int -> ?shards:int -> policy -> t
(** [capacity] (default 4096) bounds resident entries; the oldest
    insertion is evicted first. Infeasible verdicts are cached too
    (negative caching), so repeated unrescuable shapes are rejected
    without re-analysis.

    The table is split into [shards] (default 16) independent shards
    by spec-shape hash, each behind its own mutex, so pool workers
    synthesizing {e distinct} shapes never contend while lookups of
    the same shape serialize (the first is the lone miss, the rest are
    hits — the same tallies as a sequential run). Eviction is FIFO
    {e per shard} with per-shard capacity ⌈capacity/shards⌉;
    [~shards:1] reproduces the unsharded cache exactly. *)

val policy : t -> policy

val shard_count : t -> int

(** {1 Epoch-based aging}

    Long-lived services ({!Trust_daemon.Server}) see an unbounded
    stream of spec shapes: heavy hitters recur forever, the Zipf long
    tail is seen once and never again. Capacity-FIFO eviction alone
    would let one-shot shapes push the working set out, so the daemon
    also {e ages} the cache: it calls {!advance_epoch} every N
    requests, and entries untouched for [max_idle] whole epochs are
    swept. Batch runs never advance the epoch, so batch semantics are
    unchanged. *)

val epoch : t -> int
(** The current epoch, starting at 0. Hits and inserts stamp entries
    with it. *)

val advance_epoch : ?max_idle:int -> t -> int
(** Start a new epoch and sweep every entry whose last use is
    [max_idle] (default 2) or more epochs old, returning how many were
    swept. Negative (infeasible-verdict) entries age like any other.
    Thread-safe: sweeps each shard under its lock. *)

val aged_out : t -> int
(** Total entries removed by {!advance_epoch} sweeps. *)

(** {1 Trace-mining feedback: pin, deny, pre-warm}

    The policy lever the {!Trust_obs.Mine} scoreboard pulls. All three
    operations are keyed by the canonical FNV shape hash in lowercase
    hex ({!Shape.hash_hex}) — the identifier traces carry — rather
    than by spec. Pinned entries are exempt from FIFO eviction and
    epoch aging until unpinned; denied shapes are refused at admission
    with the [TM001] diagnostic. *)

val pin : t -> string -> bool
(** Pin the resident entry whose shape hash matches; [false] when no
    such entry is resident (pre-warm it instead). *)

val unpin : t -> string -> bool
(** Release a pin; [false] when nothing matched. *)

val pinned : t -> string list
(** Shape hashes of pinned residents, sorted. *)

val pinned_count : t -> int

val prewarm : t -> Spec.t -> [ `Hit | `Warmed | `Failed of string ]
(** Synthesize (if absent) and pin the spec's entry ahead of traffic;
    every spec has one. Runs off the traffic path: neither a hit nor a
    miss is tallied, so {!hit_rate} keeps measuring what clients saw.
    [`Hit] — already resident, now pinned; [`Warmed] — synthesized,
    cached, pinned; [`Failed] — synthesis failed (the negative verdict
    is cached and pinned too). *)

val deny_code : string
(** ["TM001"] — the diagnostic code of the deny refusal. *)

val deny : t -> string -> unit
(** Refuse this shape hash at every subsequent admission. *)

val allow : t -> string -> bool
(** Lift a deny; [false] when the shape was not denied. *)

val denied : t -> string list
(** Currently denied shape hashes, sorted. *)

val denied_count : t -> int
(** Admissions refused by the deny list so far. *)

val denied_reason : t -> Spec.t -> string option
(** [Some "denied: [TM001] …"] when the spec's shape is deny-listed
    (counting the refusal), [None] otherwise. The scheduler consults
    this before the admission lint. Lock-free: reads an atomically
    swapped immutable set. *)

val admission : t -> Spec.t -> string option
(** Shallow admission lint ([Lint.check_spec ~deep:false]): [None] when
    the spec passes, [Some reason] — ["lint: [code] message"] of the
    first error-level diagnostic — when it is rejected. The verdict and
    the diagnostic tallies are a pure function of the spec, memoized
    together by shape in the same shards as synthesis. *)

type lint = { verdict : string option; tally : Trust_analyze.Lint.tally }
(** A memoized admission lint: {!admission}'s verdict and the
    diagnostic tallies its ["lint"] span carries. *)

val admit : t -> Spec.t -> lint
(** {!admission}, returning the memo record itself (no allocation on a
    warm shape), so a caller can write the span later with
    {!lint_span}. *)

val lint_span : Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> lint -> unit
(** The ["lint"] span [Lint.check_spec] records for this spec — [deep],
    [diagnostics], [errors], [warnings], in that order — written from
    the memo, so a warm admission's span costs a lookup, not a lint. *)

val synthesize : t -> Spec.t -> (entry, string) result * [ `Hit | `Miss ]
(** Memoized synthesis, keyed by {!Shape.encode}: every spec is cached,
    acceptability overrides included, and every entry carries its
    compiled plan. [Error] is the synthesis failure (infeasible and not
    rescued). *)

val fresh : policy -> Spec.t -> (entry, string) result
(** Uncached synthesis — the reference the invariant compares against:
    one {!Trust_core.Feasibility.synthesize} pass, then the protocol
    and compiled plan read off its analysis. *)

val entry_equal : entry -> entry -> bool
(** Structural: canonical split-spec encodings, plans and protocol
    scripts all equal. The compiled plan derives from the rest. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val size : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any. *)
