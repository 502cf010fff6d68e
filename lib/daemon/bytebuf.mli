(** A byte queue for the wire layer: bytes are appended at the back and
    consumed from the front, and each appended byte is copied in once.

    The unread span stays where it was written. An append that finds no
    room at the back moves the unread span to the front of the store
    when the consumed prefix is at least as long as that span (so every
    moved byte is paid for by a consumed one), and otherwise grows the
    store by doubling. Emptying the queue rewinds it for free. So a
    stream of appends and consumes costs time linear in its bytes. *)

type t

val create : int -> t
(** An empty queue with an initial store of at least that many bytes. *)

val length : t -> int
(** Bytes appended and not yet consumed. *)

val add_subbytes : t -> bytes -> int -> int -> unit
(** [add_subbytes q b off len] appends [b.[off..off+len)]. *)

val add_string : t -> string -> unit

val get_uint8 : t -> int -> int
(** [get_uint8 q i] is the [i]-th unread byte, [0 <= i < length q].
    @raise Invalid_argument out of that range. *)

val sub_string : t -> int -> int -> string
(** [sub_string q pos len] copies [len] unread bytes starting [pos]
    bytes after the front, without consuming them. *)

val write : t -> Unix.file_descr -> unit
(** Write the unread bytes from where they sit and consume what the
    descriptor accepted. Errors propagate as [Unix.Unix_error];
    nothing is consumed then. *)

val consume : t -> int -> unit
(** Drop that many bytes from the front, [0 <= n <= length q]. *)

val clear : t -> unit
(** Drop every unread byte; the store is kept. *)
