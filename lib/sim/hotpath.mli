(** Allocation-free execution of compiled plans.

    The serve-path twin of [Engine.run] + [Exposure.of_result] +
    [Audit.audit], traced or not: runs a [Trust_core.Compile.t]
    instruction plan against per-domain scratch arrays, allocating no
    protocol structures per untraced session. Semantics replicate the interpreted
    modules exactly — the plan and [Harness.behaviors_for] read one
    [Protocol.role_table], the behaviours remain the oracle, and
    test_hotpath property-tests the equivalence over random specs,
    named worked examples and defection batteries. *)

open Exchange

type config = {
  latency : int;
  deadline : int;
  max_events : int;
  drop : (int -> bool) option;
      (** keyed by performed-action sequence number, like
          [Engine.config.drop] *)
}

val default_config : config
(** Matches [Engine.default_config]: latency 1, deadline 1000,
    100_000 events, no drops. *)

type summary = {
  duration : int;  (** latest delivery tick, 0 when nothing was delivered *)
  events : int;
  deliveries : int;
  stalled : int;  (** parked transfers never retried successfully *)
  all_preferred : bool;  (** the audit verdict: Settled when no stalls *)
  preferred : bool array;  (** per judged party, audit order *)
  peak_risk : int array;  (** per principal slot, [Spec.principals] order *)
  risk_ticks : int array;
  violations : int;  (** §5 bound violations among honest principals *)
}

val exec :
  ?config:config -> ?defectors:(Exchange.Party.t * Harness.defection) list ->
  ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle ->
  Trust_core.Compile.t -> summary
(** Run the plan and fold exposure + audit over the result, without
    materializing engine structures. Deterministic for a fixed
    (plan, config, defectors).

    With a live [obs] sink the run also records its engine events and,
    once it ends, attaches to [parent] the ["simulate"] span (the
    deliver/park/retry/drop/expire/deadline timeline plus run tallies)
    and the ["audit"] span with its ["exposure"] child: every span,
    attribute, event and virtual tick byte-identical to what
    [Harness.run_cast] and [Audit.audit] record for the same run on the
    interpreted engine. The spans read the exposure figures from the
    same fold as the summary and the verdict tallies from the compiled
    audit ({!report}'s verdicts); no [Engine.result] is materialized.
    The null sink (the default) costs nothing. *)

val total_peak_risk : summary -> int
(** Sum of per-principal peaks — equals [Exposure.peak_risk] of the
    interpreted run. *)

val total_risk_ticks : summary -> int

val report :
  ?config:config -> ?defectors:(Party.t * Harness.defection) list ->
  Trust_core.Compile.t -> Audit.report
(** Run the plan and judge it from the plan's audit tables: every
    per-party [acceptable], [no_loss] and [preferred] verdict, the
    honest tallies and [conserved] equal [Audit.audit] of the
    interpreted run. The report a traced {!exec} records. *)

val to_result :
  ?config:config -> ?defectors:(Party.t * Harness.defection) list ->
  Trust_core.Compile.t -> Engine.result
(** Run the plan and materialize a full [Engine.result] (state, log,
    holdings, stalls) — byte-equivalent to the interpreted engine. For
    tests: the serve path reads the summary and {!report} instead. *)
