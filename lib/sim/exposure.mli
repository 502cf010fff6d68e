(** The exposure ledger: who was at risk, for how much, for how long.

    §5's claim is that a feasible protocol protects every participant —
    at any instant, the only value an honest principal has parted with
    and not yet been compensated for is the single transfer currently
    in flight. This module makes that quantity observable: it folds the
    engine's delivery log into a per-principal, per-tick timeline of

    - {e at-risk} value: assets given or money paid into the hands of
      other {e principals} (including trusted personas, §4.2.3 — an
      independently-motivated party is not a protected place) and not
      yet reciprocated;
    - {e escrow}: custody held on the principal's behalf at genuine
      trusted agents — value that is out of its hands but protected;
    - {e deposits}: §6 indemnity deposits posted and not yet refunded
      or forfeited.

    Custody is tracked by provenance: each asset entering a trusted
    agent is queued FIFO with its original
    contributor, so forwards, migrations between agents, §2.2 deadline
    refunds and §6 forfeitures all land on the right principal's
    ledger. Valuations follow the cost-basis rule of
    {!Trace.price_for}: money at face value, a document at what the
    party pays (or failing that, is paid) for it.

    The ledger checks two invariants for {e honest} principals:
    [Bound_exceeded] — at-risk value above the party's
    {!single_transfer_bound} at some tick — and [Unsettled] — at-risk
    value remaining when the run ends. Honest runs of feasible
    protocols produce no violations; adversarial runs flag the
    violating tick and party ({!record} turns each violation into a
    structured [Obs] event). *)

open Exchange

type sample = {
  at : int;
  at_risk : Asset.money;
  in_escrow : Asset.money;
  deposits : Asset.money;
  goods_out : int;  (** documents currently out of the party's custody *)
}

type violation_kind =
  | Bound_exceeded of { at_risk : Asset.money; bound : Asset.money }
  | Unsettled of { residual : Asset.money }

type violation = { v_party : Party.t; v_at : int; v_kind : violation_kind }

type deal_summary = {
  d_party : Party.t;
  d_deal : string;
  d_peak : Asset.money;  (** peak outstanding (unreciprocated) value in this deal *)
  d_first : int;  (** first exposed tick, [-1] when never exposed *)
  d_last : int;  (** last exposed tick *)
}

type party_ledger = {
  party : Party.t;
  bound : Asset.money;
  timeline : sample list;  (** change ticks only, chronological *)
  peak_at_risk : Asset.money;
  peak_in_escrow : Asset.money;
  peak_deposits : Asset.money;
  risk_ticks : int;  (** ticks with [at_risk > 0] *)
  final : sample;
}

type agent_ledger = {
  agent : Party.t;  (** a trusted role, or a persona holding custody *)
  custody_timeline : (int * Asset.money) list;
  peak_custody : Asset.money;
  final_custody : Asset.money;
}

type t = {
  parties : party_ledger list;  (** principals, spec order *)
  agents : agent_ledger list;  (** custody holders that ever held value *)
  deals : deal_summary list;  (** (principal, deal) pairs that were ever exposed *)
  violations : violation list;  (** honest principals only, chronological *)
  duration : int;  (** last delivery tick of the run *)
}

val single_transfer_bound : Spec.t -> Party.t -> Asset.money
(** {!Exchange.Spec.single_transfer_bound}: the §5 bound, the largest
    single transfer the party's commitments ever put in flight. *)

val of_result :
  ?plan:Trust_core.Indemnity.plan ->
  ?defectors:Party.t list ->
  Spec.t ->
  Engine.result ->
  t
(** Fold the run's delivery log into the ledger. [plan] identifies
    indemnity deposit transfers; [defectors] exempts dishonest parties
    from invariant checking (their exposure is still reported). *)

val total_peak_at_risk : t -> Asset.money
val total_peak_escrow : t -> Asset.money

val total_risk_ticks : t -> int
(** Summed over principals. *)

val record : Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> t -> unit
(** Attach an ["exposure"]-phase span to a trace: summary attrs
    ([peak_at_risk], [peak_escrow], [risk_ticks], [violations], and a
    [peak_at_risk.<party>] attr per exposed principal) plus one
    ["violation"] event per violation carrying [party], [at], [kind]
    and the amounts. No-op on the null sink. *)

val record_summary :
  Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  peaks:(Party.t * Asset.money) list ->
  peak_escrow:Asset.money ->
  risk_ticks:int ->
  violation list ->
  unit
(** {!record} from a ledger's summary alone — per-principal peak
    at-risk values (principals, spec order), the total peak escrow and
    risk ticks, and the violations — for a runtime that folds the
    ledger itself ([Hotpath]). *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
