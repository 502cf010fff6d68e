(** Static proof (or refutation) of the §5 single-transfer bound.

    Runs {!Absint} over the synthesized execution sequence and checks
    every principal's worst-case interval against its bound. Soundness:
    under lockstep delivery, every run of the simulation battery —
    honest or with a single Silent/Partial defector — peaks at or below
    [i_hi], so [Proved] implies the dynamic {!Trust_sim} exposure
    ledger never reports [Bound_exceeded] for an honest party.
    Infeasible specs are [Vacuous]: nothing runs, nothing is at risk. *)

type verdict = Proved | Refuted | Vacuous

type t = {
  verdict : verdict;
  intervals : Absint.interval list;  (** empty when [Vacuous] *)
  steps : int;  (** length of the analyzed sequence *)
}

val analyze : ?shared:bool -> Exchange.Spec.t -> t
(** Analyze afresh (via {!Trust_core.Feasibility.analyze}, with the
    shared-agent rule when [shared], default false) and check. *)

val of_analysis : Trust_core.Feasibility.analysis -> t
(** Check the analysis whose sequence executes, without re-analyzing. *)

val of_sequence : Trust_core.Execution.sequence -> t

val refuted : t -> Absint.interval list
(** The intervals whose bound could not be proved. *)

val diagnostics : t -> Diagnostic.t list
(** One TL016 per refuted principal, plus a single TL017 carrying the
    worst refutation's counterexample schedule in its notes. Empty when
    the verdict is [Proved] or [Vacuous]. *)

val schedule_notes : Absint.witness -> string list
(** The counterexample-schedule rendering used in TL017 notes and by
    [trustseq analyze]. *)

val verdict_label : verdict -> string
val pp : Format.formatter -> t -> unit
