(** Hand-written lexer for the exchange DSL.

    Comments run from [#] to end of line. Identifiers are
    [\[A-Za-z_\]\[A-Za-z0-9_*\]*] (the [*] allows the generated ["t*"]
    universal-intermediary name to round-trip). Money literals are
    [$<int>] or [$<int>.<2 digits>]. An integer literal above [max_int],
    or a money literal whose value in cents is, is a located error. *)

type error = { message : string; loc : Loc.t }

val tokenize : string -> (Token.t Loc.located list, error) result
(** The token stream always ends with {!Token.Eof}. *)

val pp_error : Format.formatter -> error -> unit
