(** Compiled protocol plans (the serve-path "instruction plan").

    [compile] flattens a synthesized protocol — scripts, escrow duties,
    persona duties, deposits, audit criteria, exposure pricing — into
    integer-indexed immutable arrays. A plan is built once per cached
    shape and shared read-only across runs and domains; the
    allocation-free runtime that executes it lives in
    [Trust_sim.Hotpath], which is property-tested against the
    interpreted [Trust_sim.Harness] oracle.

    The representation is deliberately transparent: the runtime indexes
    these arrays directly on its hot path. Compiling costs time linear
    in the spec and the protocol (a rescued fan's payout table, which
    is quadratic in its width, aside). *)

open Exchange

type step = {
  cond : int;  (** action id to wait for; [-1] means fire immediately *)
  slot : int;
      (** the subscription slot of (this role, [cond]): the index of
          this role in [cond]'s listener range of [lst_role]; [-1] when
          [cond] is *)
  act : int;
}

type deal_slot = {
  sl_deal : int;  (** index into the spec's deal list *)
  sl_left_in : int;  (** [Do] of the Left side transfer into the agent *)
  sl_right_in : int;
  sl_left_back : int;  (** [Undo] counterparts (deadline returns) *)
  sl_right_back : int;
  sl_forwards : int array;  (** completion forwards, documents before money *)
}

type deposit_slot = {
  dp_in : int;  (** [Do] of the §6 deposit transfer *)
  dp_back : int;  (** its [Undo] (the refund) *)
  dp_forfeit : int;  (** [Do] forfeiting the amount to the protected owner *)
  dp_deal : int;  (** deal index of the covered piece *)
  dp_left : bool;  (** covered piece is the deal's Left side *)
}

type escrow = {
  es_atomic : bool;
  es_deals : deal_slot array;  (** mediated deals, spec order *)
  es_deposits : deposit_slot array;  (** held deposits, offer order *)
  es_notifies : step array;  (** notification steps of the agent's script *)
}

type persona_deal = {
  pc_deal : int;
  pc_incoming : int;  (** [Do] of the counterparty's transfer into me *)
  pc_return : int;  (** its [Undo] *)
  pc_forward : int;  (** [Do] of my own counterpart transfer *)
}

type role =
  | Script of { steps : step array; persona : persona_deal array }
  | Escrow of escrow

(** One own side of a judged principal, enough to classify it as
    [Exchange.Outcomes.classify] does from the delivered actions. *)
type commit_check = {
  cc_send : int;  (** the principal's visible send for this commitment *)
  cc_recv : int array;
      (** {!Exchange.Spec.deliveries}: any one delivered completes it *)
  cc_split : bool;  (** split off the principal's conjunction by an indemnity (§6) *)
  cc_payouts : int array;
      (** split sides only: the money [Do]s into the principal that
          cover its indemnity amount, so that a refund plus any one of
          them is [Indemnified]; empty when unsplit or the amount is 0 *)
}

(** Per judged party, [Trust_sim.Audit] order: what the §3 audit reads. *)
type judge =
  | Judge_principal of {
      party : int;
      checks : commit_check array;  (** its own sides, spec order *)
      extraneous : int array;
          (** every [Do] it sends outside its own sides (a §6 deposit, a
              bounce); each one delivered must also be undone *)
    }
  | Judge_trusted of { party : int; flows : int array }
      (** judged a clean conduit: net flows zero over [flows], every
          [Do] and [Undo] into or out of the party *)
  | Judge_override of int
      (** a party with an acceptability override: judged by
          {!Exchange.Outcomes} against the override over the delivered
          actions. Its own sides still intern their actions, so the
          action table is the one an override-free spec gets. *)

type t = {
  spec : Spec.t;  (** the split spec the protocol was synthesized from *)
  plan : Indemnity.plan option;  (** the indemnity plan that split it *)
  lockstep : bool;  (** lockstep runs broadcast deliveries *)
  n_deals : int;
  parties : Party.t array;  (** [Spec.parties] order, extended by action endpoints *)
  name_of : int array;  (** party index -> name index *)
  n_names : int;
  pslot_of_name : int array;  (** name index -> principal slot, [-1] none *)
  n_principals : int;
  actions : Action.t array;
  n_actions : int;
  act_kind : int array;  (** 0 [Do], 1 [Undo], 2 [Notify] *)
  act_debit : int array;  (** debited party index, [-1] for notifications *)
  act_credit : int array;
  act_doc : int array;  (** document id, [-1] for money/notify *)
  act_amount : int array;  (** money amount, [0] otherwise *)
  act_beneficiary : int array;
  act_undo : int array;  (** id of a [Do]'s [Undo] counterpart, else [-1] *)
  act_deal : int array;
      (** owning deal index ({!owning_deal}), [-1] none — the traced
          runtime's event attribution, without a per-event scan *)
  act_label : string array Atomic.t;
      (** [Action.to_string] of each action, rendered once per plan for
          every traced event that names it; empty until the first
          {!label} *)
  deal_ids : string array;  (** spec order *)
  docs : string array;
  n_docs : int;
  roles : (int * role) array;  (** (party index, role), behaviour order *)
  behavior_of : int array;  (** party index -> roles index, [-1] *)
  lst_off : int array;
      (** the listener table, flat: the roles observing action [a] can
          change are [lst_role.(k)] for [lst_off.(a) <= k < lst_off.(a+1)],
          in role order — a script with a step waiting on [a], a persona
          duty whose incoming transfer is [a], an escrow [a] (a [Do])
          credits or whose notification waits on [a]. [n_actions + 1]
          entries. *)
  lst_role : int array;
      (** listener role ids; an entry's index is the subscription slot
          of its (role, action) pair, so observation state is sized by
          the subscriptions, not by roles × actions *)
  flag_off : int array;
      (** per role: the first of its automaton flags (persona deals two
          each, escrow deal slots four, deposits two); [n_roles + 1]
          entries, the last the total *)
  endow_balance : int array;  (** per name index *)
  hold_off : int array;
      (** document holdings, the (name, document) pairs an endowment or
          a transfer can fill: name [n]'s are [hold_off.(n) ..
          hold_off.(n+1) - 1], in document order. [n_names + 1]
          entries. *)
  hold_doc : int array;  (** per holding: document id *)
  endow_holds : int array;  (** per holding: documents held initially *)
  act_src_hold : int array;
      (** per action: the holding a document transfer debits, [-1] for
          money and notifications *)
  act_dst_hold : int array;  (** per action: the holding it credits, [-1] *)
  expiries : (int * int) array;  (** (deal index, expiry tick), spec order *)
  judged : judge array;
  initial_money : int;
      (** money over the behaviour parties' initial endowments, one
          term per role — what the audit's conservation check compares
          the final holdings with *)
  initial_docs : int;  (** documents over the same endowments *)
  deposit_expect : int array;  (** per action id: §6 deposit occurrences *)
  price_src : int array;  (** asset value to the releasing party *)
  price_tgt : int array;
  src_principal : bool array;
  tgt_trusted : bool array;
      (** the target holds in custody: only a trusted role does, since a
          persona is an endpoint of every deal its role mediates *)
  bound : int array;  (** per principal slot: {!Exchange.Spec.single_transfer_bound} *)
}

val compile :
  lockstep:bool ->
  shared:bool ->
  ?plan:Indemnity.plan ->
  price:(Party.t -> Asset.t -> int) ->
  Spec.t ->
  Protocol.t ->
  t
(** Flatten a synthesized protocol. [price] is the deal-implied
    valuation used by exposure accounting (pass
    [Trust_sim.Trace.price_for spec]); [lockstep] and [shared] must
    match the harness options the protocol will run under. Every spec
    compiles, acceptability overrides included: an overridden party
    gets a {!Judge_override}. *)

val owning_deal : Spec.t -> Action.t -> int
(** Trace attribution of an action: the index of the first deal one of
    whose commitments sends or expects the transferred asset; [-1] for
    notifications and unattributable transfers. [owning_deal spec]
    tables the deals once; apply the result per action. *)

val label : t -> int -> string
(** [Action.to_string] of action [a], from the plan's label table,
    which the first call fills. Safe from any domain. *)

val party_index : t -> Party.t -> int
(** Index of a party in [parties], [-1] if unknown to the plan. *)
