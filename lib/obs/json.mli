(** A minimal JSON reader and printer, shared by the trace-analytics
    re-parse path ({!Analysis.of_jsonl}), the daemon wire protocol and
    the bench records.

    It reads exactly the JSON this codebase itself emits — objects,
    arrays, strings with the standard escapes, raw numbers, booleans,
    null — and rejects anything with trailing garbage. Numbers are kept
    as their source text so callers decide int vs float. *)

exception Bad of string
(** Raised by {!parse} and the accessors on malformed or mistyped
    input, with a short human-readable reason. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** kept raw: ids parse as int, attrs may be float *)
  | Str of string
  | Obj of (string * t) list
  | Arr of t list

val parse : string -> t
(** Parse one complete JSON value; the whole input must be consumed.
    @raise Bad on malformed input. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error reified. *)

val field : t -> string -> t
(** [field obj k] — the member [k] of an object.
    @raise Bad when missing or not an object. *)

val field_opt : t -> string -> t option
(** [None] when the member is absent (or the value is not an object). *)

val as_int : t -> int
val as_str : t -> string
val as_bool : t -> bool

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    ["\""], backslash and control characters escaped, the rest verbatim.
    Inverse of the string reader in {!parse} for ASCII payloads. *)

val to_string : t -> string
(** Compact JSON for [v] — no whitespace, members in list order, [Num]
    text verbatim — the form the wire and trace exports use. Inverse of
    {!parse}: [parse (to_string v) = v] whenever every [Num] holds a
    JSON number. *)
