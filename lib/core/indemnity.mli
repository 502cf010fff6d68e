(** Indemnities (paper §6).

    A principal makes a credible promise by escrowing money with a
    trusted intermediary it shares with the protected party; the deposit
    is forfeited to the protected party if the promised piece is not
    delivered, refunded otherwise. Graphically an indemnity {e splits} a
    conjunction node: the protected party's conjunction edge for that
    piece is removed, because the party is now content with either the
    piece or the payout.

    The required amount for a piece is the total cost of the {e other}
    pieces of the conjunction; only the piece handled last needs no
    indemnity. Ordering by decreasing piece cost therefore leaves the
    cheapest piece — the one carrying the largest indemnity — last, and
    is optimal (Fig. 7: $70 against the naive $90). *)

open Exchange

type offer = {
  piece : Spec.commitment_ref;  (** the protected party's commitment being split off *)
  owner : Party.t;  (** the protected party (conjunction owner) *)
  offered_by : Party.t;  (** who escrows the deposit: the piece's counterparty *)
  via : Party.t;  (** the trusted intermediary holding the deposit *)
  amount : Asset.money;
}

type plan = { offers : offer list; total : Asset.money }

val splittable : Spec.t -> owner:Party.t -> bool
(** §6 restricts indemnities to conjunctive edges "of the second type":
    the owner must be a principal demanding a bundle, with no red
    (broker-style) edge in its conjunction and at least two pieces. *)

val linked_pieces : Spec.t -> owner:Party.t -> Spec.commitment_ref list
(** The owner's own unsplit commitments — the "pieces" of its
    conjunction that indemnities can cover. *)

val offer_for : Spec.t -> owner:Party.t -> Spec.commitment_ref -> offer
(** The §6 offer splitting one piece: deposited by the deal's other
    principal with the deal's intermediary, for
    {!Exchange.Spec.indemnity_amount}. *)

val plan_for_order : Spec.t -> owner:Party.t -> Spec.commitment_ref list -> plan
(** Indemnify the pieces in the given order, leaving the last one
    uncovered. The list must be a permutation of the owner's linked
    commitments. @raise Invalid_argument otherwise. *)

val plan_greedy : Spec.t -> owner:Party.t -> plan
(** §6's greedy minimiser: decreasing piece cost, ties broken by
    commitment order. *)

val plan_worst : Spec.t -> owner:Party.t -> plan
(** The most expensive ordering (increasing cost) — the Fig. 7 "Order
    #1" style baseline. *)

val exhaustive_minimum : Spec.t -> owner:Party.t -> Asset.money
(** Minimum total over all orderings by brute force; factorial in the
    number of pieces, for cross-checking the greedy plan in tests.
    @raise Invalid_argument beyond 8 pieces. *)

val apply : plan -> Spec.t -> Spec.t
(** Record every offer's split in the spec. *)

val deposit_transfer : offer -> Action.transfer
(** The offerer's escrow deposit with the intermediary; its [Undo] is
    the refund. *)

val forfeit_transfer : offer -> Action.transfer
(** The intermediary pays the deposited amount to the protected owner:
    the §6 forfeit when the covered piece never completes. *)

val deposits : plan -> Action.t list
(** The escrow deposits, performed before the main execution. *)

val refunds : plan -> Action.t list
(** The happy-path deposit returns, performed after the main execution
    completes every piece. *)

val pp_offer : Format.formatter -> offer -> unit
val pp_plan : Format.formatter -> plan -> unit
