(** Allocation-free execution of compiled plans.

    The serve-path twin of [Engine.run] + [Exposure.of_result] +
    [Audit.audit]: runs a [Trust_core.Compile.t] instruction plan
    against per-domain scratch arrays, allocating no protocol
    structures per session. Semantics replicate the interpreted
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
  ?capturable:bool -> Trust_core.Compile.t -> summary
(** Run the plan and fold exposure + audit over the result, without
    materializing engine structures. Deterministic for a fixed
    (plan, config, defectors). No span is written. Unless [capturable]
    (default [false]) no timeline is kept either; a capturable run keeps
    its engine events, violation log and peak escrow in the domain's
    scratch, which {!capture} reads, until the domain's next run. *)

type capture
(** One finished run, copied out of the scratch: its event timeline,
    run tallies, compiled audit report, violation records and peak
    escrow — everything {!emit} writes its spans from. *)

val capture :
  ?defectors:(Exchange.Party.t * Harness.defection) list -> Trust_core.Compile.t -> capture
(** The run the calling domain's last {!exec} left in its scratch,
    which must have been of this plan and these defectors; no other run
    may come between. That run must have been [capturable]
    ([Invalid_argument] otherwise), so a run that turns out worth
    keeping need not be run again. *)

val emit : Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> capture -> unit
(** Record the captured run's ["simulate"] span (the
    deliver/park/retry/drop/expire/deadline timeline plus run tallies)
    and ["audit"] span with its ["exposure"] child under [parent]: every
    span, attribute, event and virtual tick byte-identical to what
    [Harness.run_cast] and [Audit.audit] record for the same run on the
    interpreted engine. The exposure figures come from the same fold as
    the summary, the verdict tallies from the compiled audit
    ({!report}'s verdicts). *)

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
    interpreted run. The report a {!capture} carries. *)

val to_result :
  ?config:config -> ?defectors:(Party.t * Harness.defection) list ->
  Trust_core.Compile.t -> Engine.result
(** Run the plan and materialize a full [Engine.result] (state, log,
    holdings, stalls) — byte-equivalent to the interpreted engine. For
    tests: the serve path reads the summary and {!report} instead. *)
