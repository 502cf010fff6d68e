open Exchange
module Harness = Trust_sim.Harness
module Feasibility = Trust_core.Feasibility
module Indemnity = Trust_core.Indemnity
module Protocol = Trust_core.Protocol

type policy = { mode : Harness.mode; shared : bool; rescue : bool; verify : bool }

let default_policy = { mode = Harness.Lockstep; shared = false; rescue = true; verify = false }

type entry = {
  split_spec : Spec.t;
  plan : Indemnity.plan option;
  protocol : Protocol.t;
  compiled : Trust_core.Compile.t option;
}

exception Divergence of string

(* The table is sharded by shape hash; each shard is an independent
   FIFO-evicting map behind its own mutex, so synthesis misses on
   distinct shapes proceed concurrently from pool workers while every
   per-shard invariant — hit is fresh-and-verified, negative caching,
   oldest-insertion eviction — is exactly the unsharded cache's.
   [fresh] runs {e under} the shard lock: concurrent lookups of one
   shape serialize, so the first is the single miss and the rest are
   hits, the same tallies a sequential run produces. *)
type cached = {
  payload : (entry, string) result;
  mutable used_epoch : int;
  mutable pinned : bool;  (* exempt from FIFO eviction and epoch aging *)
}

module Denied = Set.Make (String)

(* A shallow admission lint: the abort reason of the first error-level
   diagnostic ([None] when the spec passes), and the tally its traced
   lint span carries. *)
type lint = { verdict : string option; tally : Trust_analyze.Lint.tally }

type shard = {
  lock : Mutex.t;
  table : (string, cached) Hashtbl.t;
  order : string Queue.t;
  admission : (string, lint) Hashtbl.t;  (* memoized shallow lint by shape *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable aged_out : int;
}

type t = {
  policy : policy;
  shard_capacity : int;
  shards : shard array;
  epoch : int Atomic.t;
      (* advanced only by long-lived services; batch runs stay at 0 *)
  denied_set : Denied.t Atomic.t;
      (* shape hashes refused at admission (the trace-mining feedback
         policy); an immutable set swapped atomically so the per-session
         read never takes a lock *)
  denied_hits : int Atomic.t;
}

let default_shards = 16

let create ?(capacity = 4096) ?(shards = default_shards) policy =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  if shards <= 0 then invalid_arg "Cache.create: shards must be positive";
  {
    policy;
    (* ceiling division: total residency is still >= capacity, and
       [shards = 1] reproduces the unsharded cache exactly *)
    shard_capacity = (capacity + shards - 1) / shards;
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 64;
            order = Queue.create ();
            admission = Hashtbl.create 64;
            hits = 0;
            misses = 0;
            evictions = 0;
            aged_out = 0;
          });
    epoch = Atomic.make 0;
    denied_set = Atomic.make Denied.empty;
    denied_hits = Atomic.make 0;
  }

let policy t = t.policy

let shard_count t = Array.length t.shards

(* Shard selection uses the spec's memoized shape hash — re-hashing
   the canonical key here would box an Int64 pair per character on
   every hit, dominating the allocation budget of a compiled-path
   session. *)
let shard_of t spec =
  (Int64.to_int (Shape.hash spec) land max_int) mod Array.length t.shards

(* One synthesis pass per miss: plan, protocol and compiled plan all
   come from the one analysis [synthesize] returns. No behaviours are
   built; runs rebuild them from the protocol. *)
let fresh policy spec =
  let s = Feasibility.synthesize ~shared:policy.shared ~rescue:policy.rescue spec in
  let plan = s.Feasibility.plan and split_spec = s.Feasibility.analysis.Feasibility.spec in
  Result.map
    (fun protocol ->
      (* the flat plan the allocation-free runtime executes *)
      let compiled =
        Trust_core.Compile.compile
          ~lockstep:(policy.mode = Harness.Lockstep)
          ~shared:policy.shared ?plan
          ~price:(Trust_sim.Trace.price_for split_spec)
          split_spec protocol
      in
      { split_spec; plan; protocol; compiled = Some compiled })
    (Harness.protocol_of ~mode:policy.mode s)

(* Plans are plain data; the compiled plan derives from the rest. *)
let entry_equal a b =
  String.equal (Shape.encode a.split_spec) (Shape.encode b.split_spec)
  && a.plan = b.plan
  && Protocol.equal_roles a.protocol b.protocol

let verify t spec cached =
  (match (cached, fresh t.policy spec) with
  | Ok c, Ok f when entry_equal c f -> ()
  | Error a, Error b when String.equal a b -> ()
  | (Ok _ | Error _), _ -> raise (Divergence (Shape.hash_hex spec)));
  (* Independent safety pass: replay the cached entry's execution
     sequence and re-check the protection invariant for every party. *)
  match cached with
  | Error _ -> ()
  | Ok c -> (
    match
      Trust_analyze.Verifier.verify_spec ~shared:t.policy.shared c.split_spec
    with
    | Ok () -> ()
    | Error exposures ->
      raise
        (Divergence
           (Printf.sprintf "%s: unsafe execution sequence:\n%s"
              (Shape.hash_hex spec)
              (Trust_analyze.Verifier.explain exposures))))

(* Evict the oldest unpinned resident from [shard] (callers hold the
   lock). The order queue may hold residue of aged-out keys — popped
   freely — while pinned victims rotate to the back; [budget] bounds
   the rotation so an all-pinned shard terminates (and simply runs
   over capacity until something is unpinned). *)
let evict_oldest shard =
  let rec go budget =
    if budget > 0 then
      match Queue.take_opt shard.order with
      | None -> ()
      | Some victim -> (
        match Hashtbl.find_opt shard.table victim with
        | Some c when c.pinned ->
          Queue.add victim shard.order;
          go (budget - 1)
        | Some _ ->
          Hashtbl.remove shard.table victim;
          shard.evictions <- shard.evictions + 1
        | None -> go budget)
  in
  go (Queue.length shard.order)

let insert t shard key value ~pinned =
  if Hashtbl.length shard.table >= t.shard_capacity then evict_oldest shard;
  Hashtbl.add shard.table key { payload = value; used_epoch = Atomic.get t.epoch; pinned };
  Queue.add key shard.order

let synthesize t spec =
  let key = Shape.encode spec in
  let shard = t.shards.(shard_of t spec) in
  Mutex.lock shard.lock;
  (* [verify] and [fresh] may raise (Divergence, synthesis bugs);
     never leave the shard locked behind them. *)
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shard.lock)
    (fun () ->
      match Hashtbl.find_opt shard.table key with
      | Some cached ->
        shard.hits <- shard.hits + 1;
        cached.used_epoch <- Atomic.get t.epoch;
        if t.policy.verify then verify t spec cached.payload;
        (cached.payload, `Hit)
      | None ->
        let value = fresh t.policy spec in
        insert t shard key value ~pinned:false;
        shard.misses <- shard.misses + 1;
        (value, `Miss))

(* -- the trace-mining feedback policy: pin, deny, pre-warm --

   All three are keyed by the canonical FNV shape hash in hex — the
   currency of {!Trust_obs.Mine} scoreboards — because the policy is
   decided from traces, which carry hashes, not specs. *)

let hex_of_key key = Printf.sprintf "%016Lx" (Shape.fnv1a key)

let shard_of_hex t hex =
  match Int64.of_string_opt ("0x" ^ hex) with
  | Some h when String.length hex = 16 ->
    Some t.shards.(Int64.to_int h land max_int mod Array.length t.shards)
  | Some _ | None -> None

let set_pinned t hex value =
  match shard_of_hex t hex with
  | None -> false
  | Some shard ->
    Mutex.lock shard.lock;
    let changed = ref false in
    Hashtbl.iter
      (fun key c ->
        if c.pinned <> value && String.equal (hex_of_key key) hex then begin
          c.pinned <- value;
          changed := true
        end)
      shard.table;
    Mutex.unlock shard.lock;
    !changed

let pin t hex = set_pinned t hex true
let unpin t hex = set_pinned t hex false

let pinned t =
  let acc = ref [] in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Hashtbl.iter (fun key c -> if c.pinned then acc := hex_of_key key :: !acc) shard.table;
      Mutex.unlock shard.lock)
    t.shards;
  List.sort_uniq compare !acc

let pinned_count t =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let n = Hashtbl.fold (fun _ c acc -> if c.pinned then acc + 1 else acc) shard.table 0 in
      Mutex.unlock shard.lock;
      acc + n)
    0 t.shards

let prewarm t spec =
  let key = Shape.encode spec in
  let shard = t.shards.(shard_of t spec) in
  Mutex.lock shard.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shard.lock)
    (fun () ->
      match Hashtbl.find_opt shard.table key with
      | Some cached ->
        cached.pinned <- true;
        cached.used_epoch <- Atomic.get t.epoch;
        (match cached.payload with Ok _ -> `Hit | Error e -> `Failed e)
      | None ->
        (* off the traffic path, so neither a hit nor a miss is
           tallied: hit_rate keeps measuring what clients saw *)
        let value = fresh t.policy spec in
        insert t shard key value ~pinned:true;
        (match value with Ok _ -> `Warmed | Error e -> `Failed e))

let deny_code = "TM001"

let denied_reason t spec =
  let d = Atomic.get t.denied_set in
  if Denied.is_empty d then None
  else
    let hex = Shape.hash_hex spec in
    if Denied.mem hex d then begin
      ignore (Atomic.fetch_and_add t.denied_hits 1);
      Some
        (Printf.sprintf "denied: [%s] shape %s deny-listed by trace mining (exposure violations observed)"
           deny_code hex)
    end
    else None

let rec deny t hex =
  let d = Atomic.get t.denied_set in
  if not (Denied.mem hex d) && not (Atomic.compare_and_set t.denied_set d (Denied.add hex d))
  then deny t hex

let rec allow t hex =
  let d = Atomic.get t.denied_set in
  if Denied.mem hex d then
    if Atomic.compare_and_set t.denied_set d (Denied.remove hex d) then true else allow t hex
  else false

let denied t = Denied.elements (Atomic.get t.denied_set)
let denied_count t = Atomic.get t.denied_hits

let lint spec =
  let module D = Trust_analyze.Diagnostic in
  let diagnostics = Trust_analyze.Lint.check_spec ~deep:false spec in
  {
    verdict =
      Option.map
        (fun first -> Printf.sprintf "lint: [%s] %s" (D.code_id first.D.code) first.D.message)
        (List.find_opt (fun d -> d.D.severity = D.Error) diagnostics);
    tally = Trust_analyze.Lint.tally diagnostics;
  }

(* Admission lint is a pure function of the spec, so the serve path
   memoizes it by shape, verdict and tallies together. The memo is
   bounded: a full shard table is reset wholesale (entries are small,
   and correctness never depends on residency). *)
let admit t spec =
  let key = Shape.encode spec in
  let shard = t.shards.(shard_of t spec) in
  Mutex.lock shard.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock shard.lock)
    (fun () ->
      match Hashtbl.find_opt shard.admission key with
      | Some l -> l
      | None ->
        let l = lint spec in
        if Hashtbl.length shard.admission >= 4 * t.shard_capacity then
          Hashtbl.reset shard.admission;
        Hashtbl.add shard.admission key l;
        l)

(* The span [Lint.check_spec] records, written from a memoized lint. *)
let lint_span obs ?parent l =
  Trust_analyze.Lint.with_span obs ?parent ~deep:false (fun () -> ((), l.tally))

let admission t spec = (admit t spec).verdict

let epoch t = Atomic.get t.epoch

let advance_epoch ?(max_idle = 2) t =
  if max_idle < 1 then invalid_arg "Cache.advance_epoch: max_idle must be >= 1";
  let now = 1 + Atomic.fetch_and_add t.epoch 1 in
  let cutoff = now - max_idle in
  Array.fold_left
    (fun swept shard ->
      Mutex.lock shard.lock;
      let stale = ref [] in
      Hashtbl.iter
        (fun key c -> if c.used_epoch <= cutoff && not c.pinned then stale := key :: !stale)
        shard.table;
      List.iter (Hashtbl.remove shard.table) !stale;
      let n = List.length !stale in
      shard.aged_out <- shard.aged_out + n;
      (* compact the FIFO order queue so aged-out residue cannot pile up
         across epochs (eviction also skips dead keys lazily) *)
      if n > 0 then begin
        let live = Queue.create () in
        Queue.iter (fun k -> if Hashtbl.mem shard.table k then Queue.add k live) shard.order;
        Queue.clear shard.order;
        Queue.transfer live shard.order
      end;
      Mutex.unlock shard.lock;
      swept + n)
    0 t.shards

let sum_shards t f =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let v = f shard in
      Mutex.unlock shard.lock;
      acc + v)
    0 t.shards

let hits t = sum_shards t (fun s -> s.hits)
let misses t = sum_shards t (fun s -> s.misses)
let evictions t = sum_shards t (fun s -> s.evictions)
let aged_out t = sum_shards t (fun s -> s.aged_out)
let size t = sum_shards t (fun s -> Hashtbl.length s.table)

let hit_rate t =
  let looked = hits t + misses t in
  if looked = 0 then 0. else float_of_int (hits t) /. float_of_int looked
