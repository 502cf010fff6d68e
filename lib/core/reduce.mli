(** Sequencing-graph reduction (paper §4.2).

    The paper's two rules delete edges until none applies:

    - {b Rule #1} — a fringe commitment node's edge [(c, j)] may be
      removed when no {e other} remaining red edge [(b, j)] pre-empts
      it, or when the commitment's principal itself plays its trusted
      role (direct trust, §4.2.3/§4.2.4 clause 2).
    - {b Rule #2} — a fringe conjunction node's last edge may be removed.

    The shared-agent policy adds {!Rule3_shared} to the same reduction.

    §4.2.4: reductions are confluent — any maximal series of reductions
    yields the same feasibility verdict — so a greedy strategy suffices.
    The deterministic strategy applies Rule #2 eagerly after each
    deletion (conjunction disconnects, i.e. notifications, fire as soon
    as enabled) and otherwise scans commitments in index order; this is
    the order the paper walks through for Example #1. *)

type rule =
  | Rule1  (** fringe commitment, not pre-empted *)
  | Rule1_persona  (** fringe commitment, pre-empted but principal plays its own agent *)
  | Rule2  (** fringe conjunction *)
  | Rule3_shared
      (** extension (§9 "an agent is trusted by more than two parties"):
          a principal's conjunction whose remaining commitments all pass
          through one trusted agent is enforced by that agent itself —
          the agent sees every piece and completes them atomically (§8's
          universal-intermediary argument) — so its black edges may be
          removed without the fringe requirement. Applied only under
          [~shared:true], and only when no Rule #1 or #2 deletion
          applies. *)

type deletion = {
  step : int;  (** 1-based position in the deletion order *)
  rule : rule;
  cid : int;
  jid : int;
  colour : Sequencing.colour;
  commitment_disconnected : bool;  (** this deletion removed the commitment's last edge *)
  conjunction_disconnected : bool;
}

type verdict =
  | Feasible
  | Stuck of { remaining : (int * int * Sequencing.colour) list }
      (** remaining [(cid, jid, colour)] edges of the irreducible graph.
          §4.2.4: a stuck graph means no feasibility determination —
          the exchange is not {e shown} feasible (and for the exchange
          problems considered here, treated as infeasible). *)

type outcome = {
  verdict : verdict;
  deletions : deletion list;  (** in deletion order *)
  graph : Sequencing.t;  (** the (mutated) reduced graph *)
}

val run :
  ?shared:bool -> ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> Sequencing.t -> outcome
(** Reduce with the deterministic strategy. The graph is mutated;
    pass a {!Sequencing.copy} to keep the original. Incremental:
    instead of re-scanning every node after each deletion (quadratic),
    it re-examines only the nodes a deletion can newly enable — the
    deleted edge's endpoints and the conjunction's other commitments.
    Candidates are kept in ordered sets mirroring the deterministic
    priority, so the run is near-linear for bounded conjunction degree
    and its deletion sequence is {e identical} to that of the test
    oracle, a reducer that rescans every node after each deletion
    ([test/ref_reduce.ml], property-tested), including the §5
    execution-sequence-bearing order of the paper's Example #1
    walkthrough.

    [shared] (default false) also enables {!Rule3_shared}: strictly
    more permissive than the paper's two rules, it additionally
    recognises bundles whose pieces all flow through one trusted agent
    (the paper's own §8 argument, promoted to a rule as §9 suggests).
    When no Rule #1 or #2 deletion applies, it deletes an edge of the
    lowest-indexed eligible conjunction that still has one: the last in
    {!Sequencing.edges_of_conjunction} order. The
    verdict is safe only with the runtime counterpart — an {e atomic}
    escrow that forwards nothing until all its deals are in
    ({!Trust_sim.Behavior.escrow}). Eligibility
    ({!Sequencing.coordinated_bundles}) is computed once per run; with
    [shared] off the run does no Rule #3 work.

    When a trace [obs] is attached, the run opens a [reduce]-phase span
    (child of [parent]) carrying the per-rule profiler: one ["delete"]
    timeline event per rule application (step, rule, edge, colour,
    owner) and counters for rule applications, worklist pushes and the
    final verdict. Tracing never alters the reduction. *)

val feasible : outcome -> bool

val pp_rule : Format.formatter -> rule -> unit
val pp_deletion : Sequencing.t -> Format.formatter -> deletion -> unit
val pp_outcome : Format.formatter -> outcome -> unit
