(** One process-wide team of helper domains.

    {!run} splits an array of items across the calling domain and up
    to [jobs - 1] helpers. Helpers are spawned lazily, the first time a
    call asks for more than the team has, and never exit: between calls
    they park on a condition variable, so each keeps its domain-local
    state (the {!Trust_sim.Hotpath} scratch, its trace-ring shard, its
    minor heap) from one call to the next.

    Within a call, the enlisted helpers and the caller claim item
    indices from one shared atomic counter, so no item is handed over
    through a queue. The call returns only after a completion barrier:
    every enlisted helper has checked out under the team lock. That
    barrier is the happens-before edge that makes the items' writes —
    into caller-owned slots, one slot per item, e.g. the mutable fields
    of a {!Session.t} — safe to read afterwards, which is how the
    scheduler merges per-session outcomes back in submission order.

    One call owns the team at a time. A call that finds it taken —
    nested inside an item, or made concurrently from another domain —
    runs its items on the calling domain instead, so no call can
    deadlock waiting for the team. *)

val run : jobs:int -> ('a -> unit) -> 'a array -> unit
(** [run ~jobs f items] applies [f] to every item exactly once, on the
    caller and at most [jobs - 1] helpers, however large an earlier
    call grew the team; [jobs = 1] runs every item on the caller. If
    items raise, the call still runs every other item, then re-raises
    the first exception (by completion time) with its original
    backtrace; the team stays usable.
    @raise Invalid_argument when [jobs < 1]. *)

val parks : unit -> int
(** Times a helper has parked waiting for work, over the process
    lifetime — the volatile [serve_pool_worker_waits] gauge. *)
