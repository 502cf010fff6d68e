(** Canonical structural fingerprints of exchange specifications.

    The protocol cache keys synthesis work by the {e shape} of a spec:
    a canonical byte encoding of everything synthesis depends on —
    deals in spec order (reduction is order-sensitive), parties with
    their roles, assets with exact amounts, deadlines, personas,
    priorities, splits and acceptability overrides. Two specs with
    equal encodings are equal inputs to the whole synthesis pipeline
    and to the audit, so their protocols and compiled plans are
    interchangeable and every spec is cached. Workload generators emit
    structurally identical specs for identical draws, which is what
    makes the cache pay off. *)

open Exchange

val encode : Spec.t -> string
(** {!Spec.shape_key}: injective canonical encoding, equal strings iff
    structurally equal specs. *)

val hash : Spec.t -> int64
(** FNV-1a (64-bit) of {!encode}. Stable across runs and processes —
    never derived from [Hashtbl.hash] or address identity. *)

val hash_hex : Spec.t -> string
(** [hash] as 16 lowercase hex digits. *)

val fnv1a : string -> int64
(** {!Spec.shape_fnv1a}: FNV-1a (64-bit) of any string. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer: a cheap stateless bit mixer, used to
    derive per-session fault-injection streams from a batch seed. *)

val uniform : int64 -> float
(** Map a mixed hash to [\[0, 1)] — deterministic, platform independent. *)
