(** Generated acceptable-state specifications (paper §2.3, §3.1).

    The paper enumerates each party's acceptable final states by hand.
    This module derives them from a {!Spec.t}, mirroring the §3.1
    enumeration: status quo; completion; refund back-outs; windfalls;
    and, for deals split off a conjunction by an indemnity (§6), the
    refund-plus-indemnity-payout outcome.

    Two equivalent interfaces are provided. {!descriptions} materialises
    an explicit {!State.acceptability} — faithful to the paper but
    exponential in the number of deals a party participates in.
    {!acceptable} evaluates the same predicate structurally in
    polynomial time; a property test in the suite checks they agree. *)

(** Classification of one principal's view of one deal in a final
    state. *)
type deal_outcome =
  | Nothing  (** no transfer of this deal touched the principal *)
  | Complete  (** sent its item and received the counterpart *)
  | Refunded  (** sent its item and got it back *)
  | Windfall  (** received the counterpart without sending *)
  | Indemnified
      (** split deal only: sent, got it back, and received an indemnity
          payout covering the other pieces (§6) *)
  | Loss  (** anything else: the principal is out an asset *)

val classify :
  Spec.t -> party:Party.t -> Spec.commitment_ref -> State.t -> deal_outcome

val acceptable : Spec.t -> party:Party.t -> State.t -> bool
(** Structural acceptability. For a principal: every deal outcome is
    loss-free, and within the party's (unsplit) conjunction either every
    deal delivered its item ([Complete]/[Windfall]) or none did
    ([Nothing]/[Refunded]/[Windfall]) — the all-or-nothing reading of
    conjunction nodes (§3.2, §4.1). Split deals are judged
    independently, with [Refunded] alone unacceptable ([Indemnified] is
    required): the indemnity is what made the split sound. For a trusted
    component: it must end as a pure conduit — everything received was
    either forwarded or returned (net holdings zero, §2.5).

    When the spec carries an acceptability override for the party, the
    override is consulted instead. *)

val no_loss : Spec.t -> party:Party.t -> State.t -> bool
(** The item-level half of {!acceptable}: no deal of the party ended in
    [Loss] and no extraneous outgoing transfer went uncompensated — but
    neither the all-or-nothing bundle constraint nor the
    indemnity-payout promise on split pieces is enforced. This is the §1
    "never risks losing money or goods" guarantee that escrow mechanics
    enforce unconditionally; ending with the {e whole} bundle
    additionally needs every committed party to follow through, or an
    indemnity on the at-risk pieces (§6). *)

val assess : Spec.t -> party:Party.t -> State.t -> bool * bool
(** [(no_loss, acceptable)] from one evaluation — for callers wanting
    both verdicts without judging the party's deals twice. *)

val preferred_reached : Spec.t -> party:Party.t -> State.t -> bool
(** Every deal of the party is [Complete] (or the override's preferred
    description is satisfied). *)

val descriptions : ?max_size:int -> Spec.t -> Party.t -> State.acceptability
(** Explicit §2.3-style description sets. [max_size] (default [20_000])
    bounds the number of descriptions generated.
    @raise Invalid_argument when the bound would be exceeded — use
    {!acceptable} for such parties. *)

val pp_deal_outcome : Format.formatter -> deal_outcome -> unit
