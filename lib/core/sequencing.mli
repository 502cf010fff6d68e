(** Sequencing graphs (paper §4.1).

    A sequencing graph [SG = (C, J, R, B)] of an interaction graph has a
    {e commitment node} per interaction edge, a {e conjunction node} per
    internal interaction node, and an edge between a commitment and the
    conjunction of each of its endpoint parties — {e red} when the spec
    prioritises that commitment within the conjunction (it must be
    committed before its siblings), {e black} otherwise. Conjunction
    edges split by an indemnity (§6) are simply absent.

    The structure is mutable: {!Reduce} deletes edges in place. Build a
    fresh graph (or {!copy}) per reduction run. *)

open Exchange

type colour = Red | Black

type commitment = {
  cid : int;
  cref : Spec.commitment_ref;
  principal : Party.t;
  agent : Party.t;  (** the trusted role (not persona-resolved) *)
}

type conjunction = {
  jid : int;
  owner : Party.t;
  scope : string option;
      (** [Some deal] when the owner is a trusted agent whose deals are
          analysed independently (granular mode, §9): one conjunction
          per deal it mediates instead of one monolithic all-or-nothing
          node *)
}

type t

val build : ?granular:bool -> Spec.t -> t
(** Construct the sequencing graph of a spec's interaction graph.
    Commitment nodes are numbered in {!Spec.commitments} order,
    conjunction nodes in {!Spec.internal_parties} order.

    With [granular] (default [false]) a trusted agent mediating several
    deals gets one conjunction {e per deal} instead of the paper's
    single all-or-nothing node — the §9 reading under which "an agent
    trusted by more than two parties" simply runs several pairwise
    escrows. Principal conjunctions are unaffected. *)

val coordinated_bundles : Spec.t -> (Party.t * Party.t) list
(** [(owner, agent)] pairs where the owner's unsplit conjunction is a
    pure bundle that one non-persona agent can coordinate atomically:
    at least two linked own-side pieces, no red edge owned by anyone on
    those deals' commitments, every piece through the same agent. These
    are exactly the conjunctions {!Reduce.Rule3_shared} may split and
    the agents the runtime must make atomic. *)

val atomic_escrow : shared:bool -> Spec.t -> Party.t -> bool
(** Escrow atomicity, the one rule {!Compile} and the interpreted
    harness share: a non-persona agent's escrow is all-or-nothing when
    it coordinates a bundle (§9 / Rule #3) or — in the paper's
    monolithic reading, i.e. without [shared] — when it mediates more
    than one deal, whose single conjunction makes them all-or-nothing
    by definition. [atomic_escrow ~shared spec] computes
    {!coordinated_bundles} once; apply the result per agent. *)

val copy : t -> t
val spec : t -> Spec.t

val commitments : t -> commitment array
val conjunctions : t -> conjunction array
val commitment_count : t -> int
val conjunction_count : t -> int

val commitment : t -> int -> commitment
val conjunction : t -> int -> conjunction

val conjunction_of_party : t -> Party.t -> conjunction option

val edges_of_commitment : t -> int -> (int * colour) list
(** Remaining (conjunction id, colour) edges of a commitment; a
    commitment has at most two. *)

val edges_of_conjunction : t -> int -> (int * colour) list
(** Remaining (commitment id, colour) edges of a conjunction. *)

val edge_colour : t -> cid:int -> jid:int -> colour option
val edge_count : t -> int
val remove_edge : t -> cid:int -> jid:int -> unit
(** Used by {!Reduce}; removing an absent edge is a no-op. *)

val commitment_fringe : t -> int -> bool
(** At most one remaining edge (§4.2.1: "on the fringe"). *)

val conjunction_fringe : t -> int -> bool

val red_sibling : t -> cid:int -> jid:int -> int option
(** A remaining red edge [(b, jid)] with [b <> cid], if any — the
    pre-emption test of Rule #1. *)

val plays_own_agent : t -> int -> bool
(** Rule #1 clause 2: the commitment's principal plays its trusted role. *)

val is_disconnected_commitment : t -> int -> bool
val is_disconnected_conjunction : t -> int -> bool
val fully_reduced : t -> bool
(** No edges remain — the §4.2.4 feasibility test. *)

val check_invariants : t -> (unit, string) result
(** Structural invariants: bipartiteness (edges join exactly one
    commitment and one conjunction), commitment degree at most two,
    every edge endpoint party matches, red edges recorded in the spec. *)

val to_dot : t -> string
(** Graphviz rendering in the paper's style: hexagonal commitment
    nodes, square conjunction nodes, bold red edges (Figs. 3–4). *)

val to_ascii : t -> string
(** Terminal rendering of the same figure: one block per conjunction
    listing its remaining edges (double-struck for red), then the
    commitments that are already free of conjunctions. Rendering a
    reduced graph shows Figs. 5–6. *)

val pp : Format.formatter -> t -> unit
val pp_colour : Format.formatter -> colour -> unit
