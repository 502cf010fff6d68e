(* The production trace sink: a fixed-size binary ring buffer.

   Kept sessions are committed at close as a run of length-prefixed
   records — [begin] (session id, clock, keep reason), one [span]
   record per span, one [event] record per event, then [end] — into a
   preallocated per-domain byte buffer. The writer keeps two monotone
   byte offsets per shard, [first] (oldest intact record) and [total]
   (one past the newest); the live region is [first, total) taken
   modulo the capacity. Overwriting on wrap is explicit: before a
   record lands, whole records are evicted from the front until it
   fits, so the live region always parses cleanly — a dump never
   contains a torn record, and the decoder's only partiality is a
   session whose [begin] was evicted (it is skipped, which is exactly
   the "newest complete suffix" contract test_ring pins).

   Sharding keeps writers apart: every shard is preallocated at
   [create] and a domain adopts one for life on first use (an atomic
   fetch-and-add under [Domain.DLS], wrapping modulo the shard count).
   Each shard also carries a mutex held for the whole of a session
   commit, so a ring with fewer shards than writer domains stays
   correct — two domains sharing a shard serialize their commits
   instead of racing on its buffer and offsets. Callers who size
   [shards] to the worker-domain count get one writer per shard and an
   uncontended lock. Dumps take each shard's lock too; the stats reads
   happen after the writers are joined (batch) or on the only thread
   there is (the daemon's select loop).

   The commit loop writes bytes with [Bytes.unsafe_set] arithmetic —
   no buffer is allocated per record. The only per-commit allocations
   are the span views of the one kept session being encoded; unsampled
   sessions never reach this module at all, which is what keeps the
   rate-0 hot path allocation-free (gated structurally in
   test_ring). *)

type keep = Sampled | Violation | Retry | Expiry | Lint

let keep_label = function
  | Sampled -> "sampled"
  | Violation -> "violation"
  | Retry -> "retry"
  | Expiry -> "expiry"
  | Lint -> "lint"

let keep_code = function Sampled -> 0 | Violation -> 1 | Retry -> 2 | Expiry -> 3 | Lint -> 4

let keep_of_code = function
  | 0 -> Some Sampled
  | 1 -> Some Violation
  | 2 -> Some Retry
  | 3 -> Some Expiry
  | 4 -> Some Lint
  | _ -> None

type shard = {
  lock : Mutex.t;  (* held for a whole session commit, and for dumps *)
  buf : Bytes.t;
  cap : int;
  mutable first : int;  (* monotone: byte offset of the oldest intact record *)
  mutable total : int;  (* monotone: one past the newest record byte *)
  mutable written : int;  (* records committed over the shard's lifetime *)
  mutable dropped : int;  (* records evicted on wrap or refused as oversized *)
  mutable sessions : int;  (* session commits over the shard's lifetime *)
}

type t = { shards : shard array; slot : int Domain.DLS.key }

let create ?(shards = 1) ~capacity () =
  let n = max 1 shards in
  let cap = max 1024 (capacity / n) in
  let next = Atomic.make 0 in
  {
    shards =
      Array.init n (fun _ ->
          {
            lock = Mutex.create ();
            buf = Bytes.create cap;
            cap;
            first = 0;
            total = 0;
            written = 0;
            dropped = 0;
            sessions = 0;
          });
    (* first use from a domain adopts the next shard for life; more
       writer domains than shards share shards, under the shard lock *)
    slot = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next 1);
  }

let my_shard t = t.shards.(Domain.DLS.get t.slot mod Array.length t.shards)

let shard_count t = Array.length t.shards
let capacity t = Array.fold_left (fun acc s -> acc + s.cap) 0 t.shards
let records_written t = Array.fold_left (fun acc s -> acc + s.written) 0 t.shards
let records_dropped t = Array.fold_left (fun acc s -> acc + s.dropped) 0 t.shards
let sessions_recorded t = Array.fold_left (fun acc s -> acc + s.sessions) 0 t.shards
let bytes_resident t = Array.fold_left (fun acc s -> acc + (s.total - s.first)) 0 t.shards

(* -- byte layer: LEB128 varints, zigzag for signed, length-prefixed
      strings, IEEE doubles little-endian -- *)

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* fits in 7 bits, compared as unsigned — zigzagged 63-bit values use
   the whole int range, so [v < 0x80] would misclassify them *)
let fits7 v = v land lnot 0x7f = 0
let rec varint_size v = if fits7 v then 1 else 1 + varint_size (v lsr 7)
let str_size s = varint_size (String.length s) + String.length s

let put_byte s b =
  Bytes.unsafe_set s.buf (s.total mod s.cap) (Char.unsafe_chr (b land 0xff));
  s.total <- s.total + 1

let rec put_varint s v =
  if fits7 v then put_byte s v
  else begin
    put_byte s (0x80 lor (v land 0x7f));
    put_varint s (v lsr 7)
  end

(* at most two blits, split where the string wraps (a committed record
   never exceeds the capacity) *)
let put_str s str =
  let len = String.length str in
  put_varint s len;
  let off = s.total mod s.cap in
  let first = min len (s.cap - off) in
  Bytes.blit_string str 0 s.buf off first;
  Bytes.blit_string str first s.buf 0 (len - first);
  s.total <- s.total + len

let put_f64 s f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    put_byte s (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

(* a varint already in the ring, at monotone offset [off] *)
let read_varint_at s off =
  let rec go off shift acc len =
    let b = Char.code (Bytes.unsafe_get s.buf (off mod s.cap)) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then (acc, len + 1) else go (off + 1) (shift + 7) acc (len + 1)
  in
  go off 0 0 0

(* evict whole records from the front until [size] more bytes fit *)
let reserve s size =
  while s.total + size - s.first > s.cap do
    let len, hdr = read_varint_at s s.first in
    s.first <- s.first + hdr + len;
    s.dropped <- s.dropped + 1
  done

let put_record s psize emit =
  reserve s (varint_size psize + psize);
  put_varint s psize;
  emit s;
  s.written <- s.written + 1

(* -- record payloads -- *)

let tag_begin = 1 and tag_span = 2 and tag_event = 3 and tag_end = 4

let value_size = function
  | Obs.Int v -> 1 + varint_size (zigzag v)
  | Obs.Float _ -> 1 + 8
  | Obs.Str s -> 1 + str_size s
  | Obs.Bool _ -> 2

let put_value s = function
  | Obs.Int v ->
    put_byte s 0;
    put_varint s (zigzag v)
  | Obs.Float f ->
    put_byte s 1;
    put_f64 s f
  | Obs.Str str ->
    put_byte s 2;
    put_str s str
  | Obs.Bool b ->
    put_byte s 3;
    put_byte s (if b then 1 else 0)

let attrs_size attrs =
  varint_size (List.length attrs)
  + List.fold_left (fun acc (k, v) -> acc + str_size k + value_size v) 0 attrs

let put_attrs s attrs =
  put_varint s (List.length attrs);
  List.iter
    (fun (k, v) ->
      put_str s k;
      put_value s v)
    attrs

let begin_size ~session ~clock = 1 + varint_size session + varint_size clock + 1
let end_size ~session = 1 + varint_size session

let span_size (v : Obs.span_view) =
  1
  + varint_size v.Obs.view_id
  + varint_size (match v.Obs.view_parent with Some p -> p + 1 | None -> 0)
  + str_size v.Obs.view_phase + str_size v.Obs.view_name
  + varint_size v.Obs.view_start
  + varint_size (zigzag v.Obs.view_stop)
  + attrs_size v.Obs.view_attrs

let event_size span_id (e : Obs.event_view) =
  1 + varint_size span_id + varint_size e.Obs.ev_vt + str_size e.Obs.ev_name
  + attrs_size e.Obs.ev_attrs

let put_begin s ~session ~clock ~keep =
  put_byte s tag_begin;
  put_varint s session;
  put_varint s clock;
  put_byte s (keep_code keep)

let put_end s ~session =
  put_byte s tag_end;
  put_varint s session

let put_span s (v : Obs.span_view) =
  put_byte s tag_span;
  put_varint s v.Obs.view_id;
  put_varint s (match v.Obs.view_parent with Some p -> p + 1 | None -> 0);
  put_str s v.Obs.view_phase;
  put_str s v.Obs.view_name;
  put_varint s v.Obs.view_start;
  put_varint s (zigzag v.Obs.view_stop);
  put_attrs s v.Obs.view_attrs

let put_event s span_id (e : Obs.event_view) =
  put_byte s tag_event;
  put_varint s span_id;
  put_varint s e.Obs.ev_vt;
  put_str s e.Obs.ev_name;
  put_attrs s e.Obs.ev_attrs

(* -- committing one kept session -- *)

let framed psize = varint_size psize + psize

let record t ~keep obs =
  if not (Obs.enabled obs) then 0
  else begin
    let s = my_shard t in
    let session = Obs.session obs and clock = Obs.clock obs in
    let views = Obs.views obs in
    let records = ref 2 (* begin + end *) and bytes = ref 0 in
    bytes := framed (begin_size ~session ~clock) + framed (end_size ~session);
    List.iter
      (fun v ->
        incr records;
        bytes := !bytes + framed (span_size v);
        List.iter
          (fun e ->
            incr records;
            bytes := !bytes + framed (event_size v.Obs.view_id e))
          v.Obs.view_events)
      views;
    Mutex.protect s.lock @@ fun () ->
    let dropped0 = s.dropped in
    if !bytes > s.cap then
      (* the whole session cannot fit: refusing it outright is the only
         way to keep commits atomic (a partial write would evict its
         own head records) — the drop counter owns up to every one *)
      s.dropped <- s.dropped + !records
    else begin
      put_record s (begin_size ~session ~clock) (fun s -> put_begin s ~session ~clock ~keep);
      List.iter
        (fun (v : Obs.span_view) ->
          put_record s (span_size v) (fun s -> put_span s v);
          List.iter
            (fun e -> put_record s (event_size v.Obs.view_id e) (fun s -> put_event s v.Obs.view_id e))
            v.Obs.view_events)
        views;
      put_record s (end_size ~session) (fun s -> put_end s ~session);
      s.sessions <- s.sessions + 1
    end;
    s.dropped - dropped0
  end

(* -- dumps: the linearized live region, one blob per shard --

   Layout (all integers LEB128 varints unless noted):

     magic "TSR1"                      4 bytes
     shard count
     per shard:
       records written (lifetime)
       records dropped (lifetime)
       live length in bytes
       live bytes: the records of [first, total), oldest first

   Each record is [varint payload-length][payload]; payloads start
   with a one-byte tag (1 begin, 2 span, 3 event, 4 end) — the full
   field layout is documented in docs/OBS.md and pinned by the decoder
   round-trip property in test_ring. *)

let magic = "TSR1"

let buf_varint b v =
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let linearize ~consume t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  buf_varint b (Array.length t.shards);
  Array.iter
    (fun s ->
      Mutex.protect s.lock @@ fun () ->
      buf_varint b s.written;
      buf_varint b s.dropped;
      buf_varint b (s.total - s.first);
      for off = s.first to s.total - 1 do
        Buffer.add_char b (Bytes.unsafe_get s.buf (off mod s.cap))
      done;
      if consume then s.first <- s.total)
    t.shards;
  Buffer.contents b

let dump t = linearize ~consume:false t
let drain t = linearize ~consume:true t

let empty_dump = magic ^ "\x00"

(* -- the offline decoder -- *)

type session = { s_id : int; s_clock : int; s_keep : keep; s_views : Obs.span_view list }

type stats = {
  d_shards : int;
  d_written : int;
  d_dropped : int;
  d_sessions : int;
  d_skipped : int;
}

exception Corrupt of string

type reader = { src : string; mutable pos : int; limit : int }

let rd_byte r =
  if r.pos >= r.limit then raise (Corrupt "truncated record");
  let b = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  b

let rd_varint r =
  let rec go shift acc =
    let b = rd_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let rd_str r =
  let len = rd_varint r in
  if len < 0 || r.pos + len > r.limit then raise (Corrupt "truncated string");
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let rd_f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (rd_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let rd_value r =
  match rd_byte r with
  | 0 -> Obs.Int (unzigzag (rd_varint r))
  | 1 -> Obs.Float (rd_f64 r)
  | 2 -> Obs.Str (rd_str r)
  | 3 -> Obs.Bool (rd_byte r <> 0)
  | t -> raise (Corrupt (Printf.sprintf "unknown value tag %d" t))

let rd_attrs r =
  let n = rd_varint r in
  List.init n (fun _ ->
      let k = rd_str r in
      (k, rd_value r))

(* A span under reconstruction: events arrive as separate records, so
   they accumulate (reversed) until the session's [end] seals it. *)
type building = {
  b_view : Obs.span_view;
  mutable b_events : Obs.event_view list;  (* reversed *)
}

type open_session = {
  o_id : int;
  o_clock : int;
  o_keep : keep;
  mutable o_spans : building list;  (* reversed creation order *)
}

let decode_shard sessions skipped r =
  let current = ref None in
  while r.pos < r.limit do
    let psize = rd_varint r in
    if r.pos + psize > r.limit then raise (Corrupt "record overruns the dump");
    let stop = r.pos + psize in
    (match rd_byte r with
    | t when t = tag_begin ->
      let id = rd_varint r in
      let clock = rd_varint r in
      let keep =
        match keep_of_code (rd_byte r) with
        | Some k -> k
        | None -> raise (Corrupt "unknown keep code")
      in
      (* a begin while a session is open means its end was evicted —
         impossible under whole-session commits, but drop it defensively *)
      current := Some { o_id = id; o_clock = clock; o_keep = keep; o_spans = [] }
    | t when t = tag_span -> (
      let id = rd_varint r in
      let parent = match rd_varint r with 0 -> None | p -> Some (p - 1) in
      let phase = rd_str r in
      let name = rd_str r in
      let start = rd_varint r in
      let stop_vt = unzigzag (rd_varint r) in
      let attrs = rd_attrs r in
      match !current with
      | None -> ()  (* orphan: its session's begin was evicted on wrap *)
      | Some o ->
        o.o_spans <-
          {
            b_view =
              {
                Obs.view_session = o.o_id;
                view_id = id;
                view_parent = parent;
                view_phase = phase;
                view_name = name;
                view_start = start;
                view_stop = stop_vt;
                view_attrs = attrs;
                view_events = [];
              };
            b_events = [];
          }
          :: o.o_spans)
    | t when t = tag_event -> (
      let span_id = rd_varint r in
      let vt = rd_varint r in
      let name = rd_str r in
      let attrs = rd_attrs r in
      match !current with
      | None -> ()
      | Some o -> (
        match List.find_opt (fun b -> b.b_view.Obs.view_id = span_id) o.o_spans with
        | None -> ()  (* the event's span record was evicted with the begin *)
        | Some b -> b.b_events <- { Obs.ev_name = name; ev_vt = vt; ev_attrs = attrs } :: b.b_events))
    | t when t = tag_end -> (
      let id = rd_varint r in
      match !current with
      | Some o when o.o_id = id ->
        let views =
          List.rev_map
            (fun b -> { b.b_view with Obs.view_events = List.rev b.b_events })
            o.o_spans
        in
        sessions := { s_id = o.o_id; s_clock = o.o_clock; s_keep = o.o_keep; s_views = views } :: !sessions;
        current := None
      | Some _ | None ->
        (* a dangling end: the session's begin (and possibly some of
           its spans) was evicted on wrap. Whole-record eviction is
           oldest-first and records commit in session order, so every
           partially-evicted session leaves exactly one of these —
           counting them counts the sessions the newest-complete-suffix
           decode had to discard. *)
        incr skipped)
    | t -> raise (Corrupt (Printf.sprintf "unknown record tag %d" t)));
    r.pos <- stop
  done

let decode dump =
  try
    let r = { src = dump; pos = 0; limit = String.length dump } in
    if r.limit < 5 || String.sub dump 0 4 <> magic then raise (Corrupt "bad magic (not a TSR1 ring dump)");
    r.pos <- 4;
    let nshards = rd_varint r in
    let written = ref 0 and dropped = ref 0 and skipped = ref 0 in
    let sessions = ref [] in
    for _ = 1 to nshards do
      written := !written + rd_varint r;
      dropped := !dropped + rd_varint r;
      let len = rd_varint r in
      if r.pos + len > r.limit then raise (Corrupt "shard overruns the dump");
      decode_shard sessions skipped { src = dump; pos = r.pos; limit = r.pos + len };
      r.pos <- r.pos + len
    done;
    let sessions = List.sort (fun a b -> compare a.s_id b.s_id) !sessions in
    Ok
      ( sessions,
        {
          d_shards = nshards;
          d_written = !written;
          d_dropped = !dropped;
          d_sessions = List.length sessions;
          d_skipped = !skipped;
        } )
  with Corrupt m -> Error m

(* -- re-emission through the unchanged exporters -- *)

let to_trace s = Obs.of_views ~session:s.s_id ~clock:s.s_clock s.s_views

let export ?producer fmt sessions = Obs.export ?producer fmt (List.map to_trace sessions)
