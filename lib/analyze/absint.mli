(** Abstract interpretation of synthesized protocols.

    Computes, per principal, a worst-case exposure interval across
    every legal lockstep interleaving of the synthesized execution
    sequence and every single-party defection pattern, by joining
    escrow-slot states lattice-wise instead of enumerating sequences:
    each step compiles to release/receive deltas (escrow at a genuine
    trusted agent is protected, persona custody is released at commit,
    a direct-trust commit is the delivery), the honest peak is the
    maximal prefix of a principal's net position, and a defector
    contributes, per deal it can stall (its own deals closed under
    document supply), that deal's own maximal prefix — a sound upper
    bound on every dynamic {!Trust_sim} exposure peak. *)

open Exchange

type delta = {
  d_party : Party.t;
  d_release : Asset.money;  (** value leaving the party's control *)
  d_receive : Asset.money;  (** value finally delivered to the party *)
}

type astep = {
  a_index : int;  (** the execution step's 1-based index *)
  a_deal : string option;  (** owning deal; [None] for notifications *)
  a_label : string;  (** rendered action and origin *)
  a_deltas : delta list;
}

type witness = {
  w_defector : Party.t option;  (** [None]: the honest schedule *)
  w_at_risk : Asset.money;
  w_kept : astep list;  (** the maximizing schedule, original order *)
  w_stalled : (string * int) list;
      (** stalled deals: (deal, steps the defector lets through) *)
}

type interval = {
  i_party : Party.t;
  i_bound : Asset.money;  (** {!Exchange.Spec.single_transfer_bound} *)
  i_lo : Asset.money;  (** honest-run peak exposure *)
  i_hi : Asset.money;  (** worst case over defectors and interleavings *)
  i_witness : witness;  (** a schedule attaining [i_hi] *)
}

type t = { spec : Spec.t; steps : astep list; intervals : interval list }

val proved : interval -> bool
(** [i_hi <= i_bound]: the §5 single-transfer bound holds for this
    principal under every modelled behavior. *)

val of_sequence : Trust_core.Execution.sequence -> t
(** Compile and analyze a synthesized sequence. One interval per
    principal, in spec first-appearance order. *)

val touched_deals : Spec.t -> Party.t -> string list
(** Deals a defecting party can stall: its own, closed under document
    supply (a resale cannot complete when its supplier stalls). *)

val pp_interval : Format.formatter -> interval -> unit
val pp : Format.formatter -> t -> unit
