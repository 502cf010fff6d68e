(** Exchange-problem specifications (paper §2, §4).

    The subclass of action/state problems the sequencing-graph machinery
    handles: a set of pairwise exchanges, each between two distrusting
    principals mediated by a trusted intermediary. Every internal party
    (one with two or more interaction edges) induces a conjunction —
    all its commitments happen or none do. A commitment may be marked
    {e prioritised} (a red edge: it must be committed before its
    siblings, §4.1), a trusted role may be a {e persona} played by one of
    the deal's own principals (direct trust, §4.2.3), and a conjunction
    edge may be {e split} by an indemnity (§6). *)

type side = Left | Right

type deal = {
  id : string;  (** unique within the spec *)
  left : Party.t;  (** a principal *)
  right : Party.t;  (** a principal *)
  via : Party.t;  (** the trusted intermediary role *)
  left_sends : Asset.t;  (** what [left] hands to [via] *)
  right_sends : Asset.t;  (** what [right] hands to [via] *)
  deadline : int option;
      (** §2.2: how long (in runtime ticks) the intermediary may hold a
          side of this deal before returning it; [None] means the
          run-level escrow deadline ("sufficiently generous") applies *)
}

type commitment_ref = { deal : string; side : side }
(** One interaction-graph edge: the [side] principal's commitment to the
    deal's trusted intermediary. *)

type index
(** The lookup tables every accessor below reads: a deal-id table, each
    party's commitments in spec order, the priority/split mark set and
    the deals each trusted role mediates. *)

type t = private {
  deals : deal list;
  personas : Party.t Party.Map.t;
      (** trusted role -> principal playing it (direct trust) *)
  priorities : (Party.t * commitment_ref) list;
      (** (conjunction owner, commitment): red edge — that commitment
          must be committed before the owner's other commitments *)
  splits : (Party.t * commitment_ref) list;
      (** conjunction edges removed by an indemnity *)
  overrides : State.acceptability Party.Map.t;
      (** acceptability overrides; parties absent here use the
          generated defaults of {!Outcomes} *)
  index : index;  (** built once per value by every constructor *)
  shape : (string * int64) Lazy.t;
      (** memoized canonical shape: the injective byte encoding of
          everything synthesis depends on, paired with its 64-bit
          FNV-1a hash. Installed by every constructor, forced at most
          once per value — prefer {!shape_key}/{!shape_hash}. *)
}

(** {1 Construction} *)

val deal :
  id:string -> left:Party.t -> right:Party.t -> via:Party.t ->
  left_sends:Asset.t -> right_sends:Asset.t -> deal
(** A deal without a deadline of its own; see {!with_deadline}. *)

val sale :
  id:string -> buyer:Party.t -> seller:Party.t -> via:Party.t ->
  price:Asset.money -> good:string -> deal
(** [sale] is the ubiquitous special case: buyer pays [price], seller
    gives [good]. The buyer is the [Left] side. *)

val with_deadline : int -> deal -> deal
(** Set the deal's escrow deadline (§2.2), in runtime ticks. *)

val make :
  ?personas:(Party.t * Party.t) list ->
  ?priorities:(Party.t * commitment_ref) list ->
  ?splits:(Party.t * commitment_ref) list ->
  ?overrides:(Party.t * State.acceptability) list ->
  deal list ->
  (t, string list) result
(** Build and {{!validate}validate} a spec. [personas] pairs are
    [(trusted_role, principal)]. *)

val make_exn :
  ?personas:(Party.t * Party.t) list ->
  ?priorities:(Party.t * commitment_ref) list ->
  ?splits:(Party.t * commitment_ref) list ->
  ?overrides:(Party.t * State.acceptability) list ->
  deal list ->
  t
(** @raise Invalid_argument with the validation errors. *)

val with_split : Party.t -> commitment_ref -> t -> t
(** Record an indemnity split. Idempotent.
    @raise Invalid_argument if owner/commitment are not in the spec. *)

val with_persona : trusted:Party.t -> principal:Party.t -> t -> t
(** Declare direct trust: [principal] plays the [trusted] role.
    @raise Invalid_argument on validation failure. *)

val with_priority : Party.t -> commitment_ref -> t -> t
val with_override : Party.t -> State.acceptability -> t -> t

(** {1 Accessors} *)

val find_deal : t -> string -> deal option

val deal_index : t -> string -> int
(** Position of the deal in [deals], [-1] if absent. *)

val commitment_principal : deal -> side -> Party.t
val commitment_sends : deal -> side -> Asset.t
val commitment_expects : deal -> side -> Asset.t
(** What the side principal receives when the deal completes. *)

val other_side : side -> side

val commitments : t -> (commitment_ref * deal) list
(** Every interaction edge, [Left] then [Right] per deal, deal order. *)

val commitments_of : t -> Party.t -> commitment_ref list
(** Interaction edges incident to a party (as principal or as the
    trusted role — personas do {e not} merge here; the interaction graph
    keeps the abstract role separate, §3). *)

val own_sides : t -> Party.t -> (commitment_ref * deal) list
(** The deal sides a party takes part in as principal, spec order;
    empty for a trusted role. *)

val mediated_by : t -> Party.t -> deal list
(** The deals a trusted role mediates, spec order. *)

val principals : t -> Party.t list
(** Distinct principals, first-appearance order. *)

val trusted_agents : t -> Party.t list
val parties : t -> Party.t list

val internal_parties : t -> Party.t list
(** Parties with two or more interaction edges: the conjunction owners. *)

val persona_of : t -> Party.t -> Party.t option
(** The principal playing a trusted role, if any. *)

val effective_agent : t -> deal -> Party.t
(** The party that actually performs the trusted role of a deal: the
    persona when declared, the abstract trusted party otherwise. *)

(** {2 Deal transfers}

    Each transfer a mediated deal is made of, built in one place for the
    sequence, both runtimes and the outcome classifier. *)

val commit_transfer : t -> deal -> side -> Action.transfer
(** The side's principal sends its item to the {!effective_agent}; a
    no-op (source = target) when the principal plays the role itself. *)

val send_transfer : t -> deal -> side -> Action.transfer
(** The principal's visible send for its side (§4.2.4): the
    {!commit_transfer}, or the direct delivery to the counterparty when
    the principal plays the deal's trusted role itself. *)

val deliveries : t -> deal -> side -> Action.transfer list
(** The transfers that count as the side's principal receiving what it
    expects (the audit's delivery rule): the expected item sent to it by
    the {!effective_agent}, by the abstract trusted role, or by the
    counterparty directly. *)

val forwards : t -> deal -> Action.transfer list
(** The {!effective_agent}'s completion of the deal: each side's item
    forwarded to the other side's principal, documents before money
    (Example #1's §5 sequence). *)

val persona_transfers : t -> deal -> Party.t -> Action.transfer * Action.transfer
(** For a principal playing the deal's trusted role (§4.2.3), an
    endpoint of the deal: the counterparty's commit into it, and its own
    counterpart transfer to the counterparty. *)

val plays_own_agent : t -> commitment_ref -> bool
(** Rule #1 clause 2 (§4.2.4): the commitment's principal itself plays
    the deal's trusted-agent role. *)

val is_priority : t -> Party.t -> commitment_ref -> bool
val is_split : t -> Party.t -> commitment_ref -> bool

val linked_commitments_of : t -> Party.t -> commitment_ref list
(** [commitments_of] minus split edges: the edges actually present in
    the sequencing graph for this party's conjunction. *)

val cost_to : t -> Party.t -> commitment_ref -> Asset.money
(** Money the party sends in that commitment's deal ([0] when its side
    sends a document). This is the "cost of a piece" of §6. *)

val indemnity_amount : t -> Party.t -> commitment_ref -> Asset.money
(** §6: the indemnity that covers splitting [commitment] off [owner]'s
    conjunction — the total cost to [owner] of all {e other} pieces of
    that conjunction (computed over the original, unsplit set, so the
    value does not depend on the order indemnities are offered in;
    Fig. 7's $50/$40/$30 for the $10/$20/$30 documents). *)

val acceptability_overrides : t -> Party.t -> State.acceptability option

(** {1 Endowment, valuation and defection} *)

val endowed : t -> deal -> side -> bool
(** §2.4: the side's principal holds what it sends from the start —
    money always, a document unless the principal acquires it through
    another of its deals (a reselling broker starts without it). *)

val endowment : t -> Party.t -> Asset.t list
(** What a party holds before any action: the assets of its
    {!endowed} sides, spec order; empty for a trusted role. *)

val price_for : t -> Party.t -> Asset.t -> Asset.money
(** What an asset is worth to a party: money at face value; a document
    at what the party pays for it in the spec (its cost basis) or,
    failing that, what it is paid for it; [0] when the party never
    trades it. The one valuation the dynamic exposure ledger, the
    compiled runtime and the static bound all use. *)

val single_transfer_bound : t -> Party.t -> Asset.money
(** The §5 bound: the largest single transfer the party's commitments
    ever put in flight — [max] over its deal sides of the value it
    sends (documents at cost basis, per {!price_for}). *)

val defectable_principals : t -> Party.t list
(** Principals that do not play a trusted role: the parties whose
    defection the formalism claims to protect against. A persona is
    trusted by construction, so its defection is out of scope (§4.2.3:
    trusting someone who defects is a misplaced-trust loss, not a
    protocol failure). *)

(** {1 Canonical shape} *)

val shape_key : t -> string
(** Injective canonical encoding of the spec: deals in spec order,
    parties with roles, assets with exact amounts, deadlines, personas,
    priorities, splits, and override {e keys}. Equal strings iff equal
    synthesis inputs. Memoized — repeated calls return the same
    physical string. *)

val shape_hash : t -> int64
(** FNV-1a (64-bit) of {!shape_key}, memoized alongside it. Stable
    across runs and processes — never derived from [Hashtbl.hash] or
    address identity. *)

val shape_hex : t -> string
(** [shape_hash] as 16 lowercase hex digits. *)

val shape_fnv1a : string -> int64
(** The 64-bit FNV-1a hash behind {!shape_hash}, over any string. *)

val validate : t -> (unit, string list) result

val equal_ref : commitment_ref -> commitment_ref -> bool
val pp_side : Format.formatter -> side -> unit
val pp_ref : Format.formatter -> commitment_ref -> unit
val pp_deal : Format.formatter -> deal -> unit
val pp : Format.formatter -> t -> unit
