open Exchange

let cacheable spec = Party.Map.is_empty spec.Spec.overrides

(* The canonical encoding and its FNV-1a hash are memoized inside
   [Spec.t] itself (computed at most once per constructed spec), so a
   cache lookup no longer re-canonicalizes the spec — these are thin
   accessors kept for compatibility. *)
let encode = Spec.shape_key
let hash = Spec.shape_hash
let hash_hex = Spec.shape_hex

let fnv1a = Spec.shape_fnv1a

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
