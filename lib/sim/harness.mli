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
    protocol: scripted principals (replaced by the requested defection
    for parties listed in [defectors]) and escrow automata for every
    non-persona trusted role. The [Spec.t] argument is the {e split}
    spec the protocol was synthesized from. Behaviours are single-run
    stateful machines — callers that reuse a protocol across runs (the
    serve-layer protocol cache) must call this once per run. *)

val assemble :
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?mode:mode ->
  ?shared:bool ->
  ?plan:Trust_core.Indemnity.plan ->
  ?defectors:(Party.t * defection) list ->
  Spec.t ->
  (cast, string) result
(** Synthesize the protocol (applying the plan's splits first, with the
    escrow deposits chained in front), then build behaviours: scripted
    principals — replaced by the requested defection for parties listed
    in [defectors] — and escrow automata for every non-persona trusted
    role (atomic when the agent mediates several deals). [mode] defaults
    to [Lockstep]; [shared] enables the shared-agent reduction rule.
    [Error] when the (split) spec is infeasible. [obs]/[parent] attach a
    ["route"] span (mode, behaviour count) to a trace; the inner
    feasibility re-analysis is deliberately uninstrumented so a pipeline
    trace carries exactly one reduce span per phase. *)

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
(** Principals that do not play a trusted role: the parties whose
    defection the formalism claims to protect against. A persona is
    trusted by construction, so its defection is out of scope (§4.2.3:
    trusting someone who defects is a misplaced-trust loss, not a
    protocol failure). *)

val pp_cast : Format.formatter -> cast -> unit
