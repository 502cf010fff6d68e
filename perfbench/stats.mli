(** The benchmark's arithmetic: percentiles and the ten-beyond rule,
    the outcome digest, and the per-layer reconciliation. Pure, so the
    benchmark's own tests pin every figure it prints. *)

(** {1 Percentiles} *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-quantile
    ([q] in [\[0, 1\]]) of an ascending array: the element at rank
    [ceil (q * n)], 1-based. [nan] on an empty array. *)

val beyond : int -> float -> int
(** [beyond n q] — how many of [n] samples rank strictly above the
    nearest-rank [q]-quantile. *)

val tail_quantile : int -> float
(** The highest of p99.9, p99, p90 and p50 with at least ten of [n]
    samples beyond it — the tail a run of [n] samples can report
    honestly. [0.5] when even the median has fewer than ten beyond. *)

val quantile_label : float -> string
(** ["p99"], ["p99.9"], … *)

val mean : float array -> float
(** [nan] on an empty array. *)

val median : float list -> float
(** Median of an unsorted list (the mean of the middle pair when even);
    [nan] on an empty list. *)

(** {1 Outcome digest} *)

type outcome = {
  status : string;  (** ["settled" | "expired" | "aborted" | "error"] *)
  ticks : int;
  events : int;
  attempts : int;
  exposure_peak : int;
  exposure_ticks : int;
  exposure_violations : int;
}

val outcome_line : outcome -> string
(** The canonical rendering folded into the digest. *)

type digest

val empty_digest : digest
val fold : digest -> outcome -> digest
(** Order-sensitive: FNV-1a (64-bit) over the outcome lines, each
    terminated by a newline. *)

val digest_hex : digest -> string
val digest_of_list : outcome list -> string

(** {1 Reconciliation} *)

val unattributed_share : e2e_mean:float -> stages:float list -> float
(** [(e2e_mean - sum stages) / e2e_mean]: the share of the end-to-end
    mean that no traced stage accounts for. Negative when the stages
    over-count (tracing inflates them). [nan] when [e2e_mean <= 0]. *)

val per_item_us : wall_s:float -> items:int -> float
(** Microseconds of [wall_s] per item; [nan] when [items <= 0]. The
    batch reconciles its serial stage sums against the jobs-1 wall time
    per session this way: a jobs-2 wall would credit the stages with
    the pool's parallel speed-up. *)

val ratio : float -> float -> float
(** [ratio a b = a / b], [nan] when [b <= 0]. *)

(** {1 Blocks}

    A shared 2-core host speeds up and slows down under a run. Cutting
    the timed phase into consecutive blocks of equal work and reporting
    the median over blocks keeps a slow stretch from moving the figure
    more than its share of the blocks. *)

val block_quantiles : size:int -> float array -> float -> float list
(** [block_quantiles ~size values q]: the nearest-rank [q]-quantile of
    each consecutive whole block of [size] values (in arrival order); a
    trailing partial block is dropped. Fewer than [size] values make a
    single block. *)

val block_rates : size:int -> float array -> float list
(** [block_rates ~size times]: for ascending completion times (seconds
    from the start of the phase), each whole block's [size] completions
    divided by the time from the previous block's last completion (or
    the start) to its own last. Fewer than [size] times make a single
    block. *)

(** {1 Host speed}

    The same code runs at different speeds on a shared host from one
    minute to the next. The benchmark times a fixed reference kernel in
    short slices between the program's work ({!Calib} in the benchmark)
    and reports the program's figures at the reference speed: a block's
    times scaled by [ref_ms / slice], its rates by [slice / ref_ms],
    where [slice] is the median slice timed during that block. *)

type per = Time | Rate

val at_reference :
  ref_ms:float -> window:int -> slices:float list -> per -> float array -> float array
(** [at_reference ~ref_ms ~window ~slices per values] scales each of
    [values] (in arrival order) by the slice of its window: value [k]
    by slice [k / window]. Values past the last whole window with a
    slice are dropped. *)
