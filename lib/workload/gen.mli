(** Parameterised exchange-problem generators.

    The paper motivates "complex royalties and payment arrangements"
    (§3.2) without giving workloads; these generators provide the
    scaling axes for the experiments: resale chains (Example #1
    generalised to [n] brokers), document fans (Example #2/Fig. 7
    generalised to [k] documents) and random marketplaces with a
    tunable trust density. *)

open Exchange

val chain : brokers:int -> Spec.t
(** [chain ~brokers:n] — a consumer buys one document resold along a
    chain of [n] brokers from a producer; [n + 1] deals, each via its
    own intermediary; every broker must secure its buyer first (red
    edge). Feasible for every [n >= 0] ([n = 1] is Example #1).
    @raise Invalid_argument on negative [n]. *)

val chain_direct : brokers:int -> Spec.t
(** The same chain when every seller is trusted directly by its buyer —
    the two-messages-per-deal world of §8. *)

val fan : prices:Asset.money list -> Spec.t
(** [fan ~prices] — a consumer needs all [k = length prices] documents,
    each resold by its own broker from its own source (brokers buy at
    80% of the resale price). Infeasible for [k >= 2] without
    indemnities or direct trust; [prices = [$10; $20; $30]] is Fig. 7.
    @raise Invalid_argument on an empty price list. *)

val fan_consumer : Party.t

val bundle : docs:int -> Spec.t
(** [bundle ~docs:k] — a consumer buys [k] documents directly from [k]
    producers through [k] intermediaries, all-or-nothing. Unlike the
    broker {!fan}, this is feasible for every [k]: producers deposit
    first, nothing blocks the bundle. *)

(** {1 Random transactions}

    Each generated spec is {e one} distributed transaction — the unit
    the formalism analyses. Marketplace-level experiments sample many
    transactions and aggregate. *)

type mix = {
  sale_weight : int;  (** simple consumer-producer sales *)
  chain_weight : int;  (** broker resale chains *)
  max_chain : int;  (** chain length bound (brokers) *)
  fan_weight : int;  (** all-or-nothing document fans *)
  max_fan : int;  (** fan width bound (documents) *)
  bundle_weight : int;  (** broker-free bundles *)
  max_bundle : int;
  trust_density : float;
      (** probability that any given deal's seller trusts its buyer, who
          then plays the intermediary (§4.2.3 variant 1 — the direction
          of direct trust that unblocks broker resales) *)
}

val default_mix : mix

val random_transaction : Prng.t -> mix -> Spec.t
(** One random transaction drawn from the mix, with direct-trust
    personas sprinkled at [trust_density]. Deterministic in the
    generator state. *)

val random_transactions : Prng.t -> mix -> int -> Spec.t list
