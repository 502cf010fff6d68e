(** The discrete-event runtime.

    Virtual time starts at zero; every performed action is delivered to
    its beneficiary after a fixed latency; behaviours react to
    deliveries with further actions. The engine owns asset custody: a
    [Do]/[Undo] debits the sending party when performed and credits the
    receiver at delivery, and an action whose asset is not on hand is
    parked and retried whenever the sender's holdings grow — a behaviour
    can never spend what it does not have (§2.4). Deals carrying their
    own §2.2 deadline raise {!Behavior.Expired} at that tick; at the
    run-level [deadline] every behaviour observes {!Behavior.Deadline}
    (escrows refund and settle whatever remains).

    The run ends when the queue drains; actions still parked are
    reported as [stalled]. *)

open Exchange

type config = {
  latency : int;
  deadline : int;
  max_events : int;
  broadcast : bool;
      (** deliver every action as an observation to {e all} behaviours
          (the lockstep bulletin-board model), not just its beneficiary *)
  drop : (int -> Action.t -> bool) option;
      (** network fault injection: when [drop seq action] is true the
          performed action is lost in transit — the asset it carried is
          returned to the sender's custody (the paper assumes reliable
          delivery; drops model the §2.2 failures deadlines exist for).
          [seq] numbers performed actions from zero, so callers can
          drop deterministically. *)
}

val default_config : config
(** latency 1, deadline 1_000, max 100_000 events, no broadcast. *)

type delivery = { at : int; action : Action.t }

type result = {
  state : State.t;  (** all delivered actions — the §2.3 exchange state *)
  log : delivery list;  (** chronological *)
  holdings : (Party.t * Asset.Bag.t) list;  (** final custody, incl. endowments *)
  stalled : (Party.t * Action.t) list;  (** parked forever: sender never obtained the asset *)
  events : int;
}

val initial_endowment : Spec.t -> deposits:Trust_core.Indemnity.offer list -> Party.t -> Asset.Bag.t
(** What a party starts with: principals hold the money their deal sides
    and indemnity deposits require plus every document they sell but do
    not acquire through another deal; trusted components start empty. *)

val run :
  ?config:config ->
  ?obs:Trust_obs.Obs.t ->
  ?span:Trust_obs.Obs.handle ->
  Spec.t ->
  deposits:Trust_core.Indemnity.offer list ->
  behaviors:Behavior.t list ->
  result
(** Simulate. Behaviours are started in list order at time zero.
    [obs]/[span] attach runtime events to a trace span: ["deliver"],
    ["park"], ["retry"], ["expire"], ["deadline"] and ["drop"], each
    carrying the engine tick as an [at] attribute and — for transfers —
    the owning deal. The default null sink records nothing and costs
    nothing. *)

val deal_action_attrs :
  deal:string option -> at:int -> Action.t -> (string * Trust_obs.Obs.value) list
(** The attributes of an action-carrying trace event: [deal] (when
    attributed), [at] and [action]. Shared with the compiled runtime's
    traced mode so both render byte-identical events. *)

val pp_result : Format.formatter -> result -> unit
