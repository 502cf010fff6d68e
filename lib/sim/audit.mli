(** Post-run auditing: the paper's safety claim, tested.

    §1: "A feasible exchange can be carried out in such a way that no
    participant ever risks losing money or goods without receiving
    everything promised in exchange." The auditor evaluates the final
    exchange state of a simulation against every party's acceptable-state
    specification ({!Exchange.Outcomes}) and separates honest parties
    from defectors. *)

open Exchange

type verdict = {
  party : Party.t;
  honest : bool;
  acceptable : bool;  (** full §2.3 acceptability, bundles included *)
  no_loss : bool;  (** item-level: lost no money or goods (§1) *)
  preferred : bool;
}

type report = {
  verdicts : verdict list;
  honest_all_acceptable : bool;
      (** every honest party ends in an acceptable state — holds on
          honest runs, and under defection whenever the stalled bundle
          pieces were escrowed or indemnified *)
  honest_no_loss : bool;
      (** no honest party lost an asset — the unconditional §1 claim *)
  all_preferred : bool;  (** true on fully honest completed runs *)
  conserved : bool;  (** no asset was created or destroyed *)
}

val audit :
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  Spec.t ->
  ?plan:Trust_core.Indemnity.plan ->
  ?defectors:Party.t list ->
  Engine.result ->
  report
(** Judge the run. Trusted roles with a persona are skipped (their
    actions are judged as their principal's). Conservation compares
    final holdings against initial endowments moved by the delivered
    actions. [obs]/[parent] attach an ["audit"] span (verdict tallies
    and the four report booleans) to a trace. *)

val of_verdicts : conserved:bool -> verdict list -> report
(** The report over per-party verdicts judged elsewhere (the compiled
    audit in [Hotpath]): the three tallies folded as {!audit} folds
    them. *)

val record :
  Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> report ->
  (Trust_obs.Obs.handle -> unit) -> unit
(** The ["audit"] span {!audit} attaches — tallies and the report
    booleans — for a report judged elsewhere; the callback records the
    ["exposure"] child under the span it is given. No-op on the null
    sink. *)

val pp_report : Format.formatter -> report -> unit
