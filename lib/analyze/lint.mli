(** Entry points for the spec linter.

    Exit-code contract (documented in docs/LINT.md and the man page):
    0 — clean (info diagnostics never gate, even under [--Werror]);
    1 — error-severity diagnostics (or warnings under [--Werror]);
    2 — usage, unreadable input, or lex/parse failure (TL010). *)

open Exchange

type format = Human | Json | Sarif

val check_spec :
  ?obs:Trust_obs.Obs.t ->
  ?parent:Trust_obs.Obs.handle ->
  ?file:string ->
  ?decls:Trust_lang.Ast.program ->
  ?static:bool ->
  ?deep:bool ->
  Spec.t ->
  Diagnostic.t list
(** Lint an already-elaborated spec. [deep] (default [true]) also runs
    the feasibility-based rules; the serve admission gate uses
    [deep:false] to stay cheap. [static] (default [true]) additionally
    runs the static exposure pass (TL015–TL017) on the synthesized
    sequence; it only matters when [deep] holds. Sorted
    deterministically. [obs]/[parent] attach a ["lint"] span (diagnostic
    tallies) to a trace; the default null sink records nothing. *)

type tally = { diagnostics : int; errors : int; warnings : int }
(** What a ["lint"] span reports of a diagnostic list. *)

val tally : Diagnostic.t list -> tally

val with_span :
  Trust_obs.Obs.t -> ?parent:Trust_obs.Obs.handle -> deep:bool -> (unit -> 'a * tally) -> 'a
(** The ["lint"] span {!check_spec} records, around a lint whose tally
    may come from elsewhere (the serve admission memo): [deep] and the
    tally's three counts, in that order. *)

val lint_source :
  ?file:string -> ?static:bool -> ?deep:bool -> string -> Diagnostic.t list
(** Parse, elaborate and lint DSL source. Lex/parse failures yield a
    single TL010; elaboration failures yield one TL011 per error (in
    location order); web programs are checked for elaboration only. *)

val lint_file : ?static:bool -> ?deep:bool -> string -> Diagnostic.t list
(** [lint_source] on the file's contents; an unreadable file yields
    TL010. *)

val exit_status : ?werror:bool -> Diagnostic.t list -> int
(** The contract above, over a (possibly multi-file) report. *)

val render : format -> Diagnostic.t list -> string
