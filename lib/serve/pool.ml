(* One process-wide team of helper domains. A call publishes its items
   as one batch; the enlisted helpers and the calling domain claim item
   indices with a shared fetch-and-add until none are left, and the
   caller waits on a completion barrier (every enlisted helper checks
   out under [lock]) before it returns. Callers hand in closures that
   write into caller-owned slots, so the barrier is the only
   synchronization the results need. Helpers never exit: they park on
   [wake] between batches, keeping their domain-local state warm. *)

type batch = {
  work : int -> unit;
  count : int;
  next : int Atomic.t;  (* the next unclaimed item index *)
  enlisted : int;  (* helpers [0, enlisted) take part *)
  mutable pending : int;  (* enlisted helpers still working; under [lock] *)
  (* First item exception with its backtrace, re-raised on the calling
     domain once every item has run. *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let lock = Mutex.create ()
let wake = Condition.create ()
let finished = Condition.create ()

(* Under [lock]: the batch being worked on and a count of batches
   published, so a helper takes part in each batch at most once. *)
let current : batch option ref = ref None
let generation = ref 0

(* Held by the one call that owns the team; any call that finds it
   taken (nested in an item, or from another domain) runs alone. *)
let busy = Atomic.make false

(* Helpers spawned so far; only the owner of [busy] grows the team. *)
let helpers = ref 0
let parked = Atomic.make 0
let parks () = Atomic.get parked

let drain b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.count then begin
      (try b.work i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set b.failure None (Some (e, bt))));
      claim ()
    end
  in
  claim ()

let helper index () =
  let seen = ref 0 in
  Mutex.lock lock;
  while true do
    match !current with
    | Some b when !generation <> !seen && index < b.enlisted ->
      seen := !generation;
      Mutex.unlock lock;
      drain b;
      Mutex.lock lock;
      b.pending <- b.pending - 1;
      if b.pending = 0 then Condition.signal finished
    | _ ->
      Atomic.incr parked;
      Condition.wait wake lock
  done

let dispatch b =
  while !helpers < b.enlisted do
    ignore (Domain.spawn (helper !helpers) : unit Domain.t);
    incr helpers
  done;
  Mutex.lock lock;
  current := Some b;
  incr generation;
  Condition.broadcast wake;
  Mutex.unlock lock;
  drain b;
  Mutex.lock lock;
  while b.pending > 0 do
    Condition.wait finished lock
  done;
  current := None;
  Mutex.unlock lock

let run ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let count = Array.length items in
  let wanted = min (jobs - 1) (count - 1) in
  let team = wanted > 0 && Atomic.compare_and_set busy false true in
  let enlisted = if team then wanted else 0 in
  let b =
    {
      work = (fun i -> f items.(i));
      count;
      next = Atomic.make 0;
      enlisted;
      pending = enlisted;
      failure = Atomic.make None;
    }
  in
  if team then Fun.protect ~finally:(fun () -> Atomic.set busy false) (fun () -> dispatch b)
  else drain b;
  match Atomic.get b.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()
