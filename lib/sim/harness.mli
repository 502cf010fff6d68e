(** Run assembly: from a spec (plus an optional indemnity plan) to a
    configured simulation with honest or adversarial casts. *)

open Exchange

(** How the synthesized execution sequence is turned into behaviour
    scripts. *)
type mode =
  | Lockstep
      (** the §5 semantics taken literally: the sequence is a total
          order; every action waits for its global predecessor and every
          delivery is broadcast (bulletin-board observability). A
          defector stalls everything after its withheld action, and the
          escrow deadline unwinds — this is the mode under which the
          paper's safety claim holds. *)
  | Distributed
      (** each party acts on locally observable triggers only (its own
          receipts and notifications). Cheaper and more realistic, but
          independent branches proceed concurrently, so a defection in
          one branch of a bundle can leave another branch completed —
          the paper defers a sound fully distributed protocol to future
          work (§9). *)

type cast = {
  spec : Spec.t;  (** the (possibly split) spec the run executes *)
  plan : Trust_core.Indemnity.plan option;
  mode : mode;
  protocol : Trust_core.Protocol.t;
  behaviors : Behavior.t list;
}

type defection =
  | Silent  (** never performs any action *)
  | Partial of int  (** performs only its first [n] scripted actions *)

val behaviors_for :
  ?shared:bool ->
  ?plan:Trust_core.Indemnity.plan ->
  ?defectors:(Party.t * defection) list ->
  mode:mode ->
  Spec.t ->
  Trust_core.Protocol.t ->
  Behavior.t list
(** Build fresh behaviours for one run of an already-synthesized
    protocol from its {!Trust_core.Protocol.role_table} (the table
    {!Trust_core.Compile.compile} reads too): scripted principals with
    their persona duties (replaced by the requested defection for
    parties listed in [defectors]) and escrow automata for every
    non-persona trusted role. The [Spec.t] argument is the {e split}
    spec the protocol was synthesized from. Behaviours are single-run
    stateful machines — callers that reuse a protocol across runs (the
    serve-layer protocol cache) must call this once per run. *)

val protocol_of :
  ?mode:mode -> Trust_core.Feasibility.synthesis -> (Trust_core.Protocol.t, string) result
(** The protocol for the sequence the synthesis already holds (no
    re-analysis), once the independent {!Trust_analyze.Verifier} pass
    accepts it; lockstep (the default) chains the plan's escrow
    deposits in front. [Error] when infeasible or unsafe. *)

val cast_of :
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?mode:mode ->
  ?defectors:(Party.t * defection) list ->
  Trust_core.Feasibility.synthesis ->
  (cast, string) result
(** {!protocol_of}, then {!behaviors_for} under the analysis' [shared]
    setting. [obs]/[parent] attach a ["route"] span (mode, behaviour
    count, indemnified flag or error) to a trace. *)

val assemble :
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?mode:mode ->
  ?shared:bool ->
  ?plan:Trust_core.Indemnity.plan ->
  ?defectors:(Party.t * defection) list ->
  Spec.t ->
  (cast, string) result
(** {!cast_of} for a plan computed elsewhere: applies its splits and
    analyzes the split spec (untraced; [shared] defaults to false). *)

val honest_run :
  ?config:Engine.config ->
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?mode:mode -> ?shared:bool -> ?plan:Trust_core.Indemnity.plan ->
  Spec.t -> (Engine.result, string) result

val adversarial_run :
  ?config:Engine.config ->
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?mode:mode ->
  ?shared:bool ->
  ?plan:Trust_core.Indemnity.plan ->
  defectors:(Party.t * defection) list ->
  Spec.t ->
  (Engine.result, string) result

val run_cast :
  ?config:Engine.config -> ?obs:Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> cast ->
  Engine.result
(** Runs with the cast's mode (lockstep forces broadcast delivery).
    [obs]/[parent] attach a ["simulate"] span whose child events are the
    engine's deliver/park/retry/expire/deadline/drop timeline. *)

val simulate_attrs :
  Trust_obs.Obs.t -> Trust_obs.Obs.handle -> events:int -> deliveries:int -> stalled:int ->
  peak_at_risk:Asset.money -> peak_escrow:Asset.money -> unit
(** The run tallies and total exposure peaks {!run_cast} stamps on its
    ["simulate"] span, shared with the compiled runtime's traced mode. *)

val universal_run :
  ?config:Engine.config ->
  ?defectors:(Party.t * defection) list ->
  Spec.t ->
  Engine.result * Spec.t
(** §8's single-coordinator protocol, bypassing the sequencing machinery
    entirely: every deal is rerouted through one fresh agent ["t*"]
    ({!Trust_core.Cost.with_universal_intermediary}); principals deposit
    everything they hold up front and re-deposit resold documents as
    they cycle through; the {!Behavior.coordinator} holds all of it
    until the whole transaction is ready, then settles. Feasible for
    every exchange problem — the §8 claim — at the cost of universal
    trust. Returns the result together with the transformed spec the
    audit should judge against. *)

val defectable_principals : Spec.t -> Party.t list
(** {!Exchange.Spec.defectable_principals}: the principals that play no
    trusted role, whose defection the formalism protects against. *)

val injected_defectors : every:int -> int -> Spec.t -> (Party.t * defection) list
(** The fault-injection rule batch and daemon share: session [id]'s
    first defectable principal goes [Silent] when [every > 0] and
    [(id + 1) mod every = 0]; otherwise nobody defects. Keyed on the
    id alone, so a tail replay re-derives the identical cast. *)
