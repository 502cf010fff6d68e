(** One-call analysis: spec → sequencing graph → reduction → execution
    sequence, plus the indemnity rescue loop; {!synthesize} is the one
    pass every caller that runs or caches a spec goes through. *)

open Exchange

type analysis = {
  spec : Spec.t;
  shared : bool;  (** {!Reduce.Rule3_shared} enabled; a rescue from here keeps it *)
  outcome : Reduce.outcome;
  sequence : Execution.sequence option;  (** [Some] iff feasible *)
}

val analyze :
  ?shared:bool -> ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Spec.t -> analysis
(** [shared] (default false) also enables {!Reduce.Rule3_shared}, the
    shared-agent extension. [obs]/[parent] attach the reducer's
    profiler span to a trace (see {!Reduce.run}); the default null sink
    records nothing. *)

val is_feasible : ?shared:bool -> Spec.t -> bool

val blocking_conjunctions : analysis -> Party.t list
(** Owners of conjunctions with edges remaining in the stuck graph —
    the candidates for indemnification or direct trust. Empty when
    feasible. *)

type rescue = {
  plans : Indemnity.plan list;  (** one per conjunction that was split *)
  analysis : analysis;  (** of the split spec; feasible on success *)
}

val rescue_from : analysis -> rescue option
(** From an analysis in hand, repeatedly: if stuck, greedily indemnify
    the blocking {e principal} conjunction whose split is cheapest, and
    re-analyze. [None] when no further principal conjunction can be
    split and the spec is still infeasible. Feasible: no plans. *)

val rescue_with_indemnities : ?shared:bool -> Spec.t -> rescue option
(** [rescue_from (analyze ?shared spec)]. *)

val total_indemnity : rescue -> Asset.money

val merged_plan : rescue -> Indemnity.plan option
(** The plans as one (offers in split order), [None] if none; applied
    to the original spec it gives the rescue's split spec. *)

type synthesis = {
  plan : Indemnity.plan option;  (** the merged rescue plan, if any *)
  analysis : analysis;  (** of the spec that executes: split iff [plan] *)
}

val synthesize :
  ?shared:bool ->
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  rescue:bool ->
  Spec.t ->
  synthesis
(** Analyze once (attached to [obs]/[parent]); when stuck and [rescue]
    is set, {!rescue_from} that analysis — k+1 analyses for k plans. *)
