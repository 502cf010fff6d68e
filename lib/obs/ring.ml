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

   A commit encodes the session once, in one linear pass, into a
   per-domain scratch buffer outside any lock: each record's payload is
   written after a one-byte length slot, and shifted up when its
   length needs a longer varint. Under the shard lock the
   commit then evicts whole records until the session fits, copies it
   in with at most two blits (split where it wraps) and bumps the
   counters — the same bytes, counters and eviction order as writing
   the records one at a time (pinned against that per-byte writer,
   test/ref_ring.ml, in test_ring). A session larger than its shard is
   encoded only until it passes the shard size, since it is refused
   whole, and a scratch grown past the shard size is given back after
   the commit. The only per-commit allocations
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

(* -- the session encoder: per-domain scratch, grown as needed, reused -- *)

type enc = { mutable b : Bytes.t; mutable len : int }

let enc_initial = 4096
let enc_key = Domain.DLS.new_key (fun () -> { b = Bytes.create enc_initial; len = 0 })
let scratch_bytes () = Bytes.length (Domain.DLS.get enc_key).b

let room e n =
  if e.len + n > Bytes.length e.b then begin
    let b = Bytes.create (max (e.len + n) (2 * Bytes.length e.b)) in
    Bytes.blit e.b 0 b 0 e.len;
    e.b <- b
  end

(* the unchecked writers: callers have made [room] *)
let byte e v =
  Bytes.unsafe_set e.b e.len (Char.unsafe_chr (v land 0xff));
  e.len <- e.len + 1

let rec varint e v =
  if fits7 v then byte e v
  else begin
    byte e (0x80 lor (v land 0x7f));
    varint e (v lsr 7)
  end

(* the checked field writers; a 63-bit varint takes at most 9 bytes *)
let put_byte e v =
  room e 1;
  byte e v

let put_varint e v =
  room e 9;
  varint e v

let put_str e str =
  let len = String.length str in
  room e (9 + len);
  varint e len;
  Bytes.unsafe_blit_string str 0 e.b e.len len;
  e.len <- e.len + len

let put_f64 e f =
  room e 8;
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    byte e (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

(* A record is [varint payload-length][payload]. The payload goes in
   after a one-byte length slot; [close_record] writes the length, first
   shifting the payload up when it needs a longer varint (a payload of
   128 bytes or more). *)
let open_record e =
  room e 1;
  let slot = e.len in
  e.len <- slot + 1;
  slot

let close_record e slot =
  let psize = e.len - slot - 1 in
  let extra = varint_size psize - 1 in
  if extra > 0 then begin
    room e extra;
    Bytes.blit e.b (slot + 1) e.b (slot + 1 + extra) psize
  end;
  let stop = e.len + extra in
  e.len <- slot;
  varint e psize;
  e.len <- stop

(* -- record payloads -- *)

let tag_begin = 1 and tag_span = 2 and tag_event = 3 and tag_end = 4

let put_value e = function
  | Obs.Int v ->
    put_byte e 0;
    put_varint e (zigzag v)
  | Obs.Float f ->
    put_byte e 1;
    put_f64 e f
  | Obs.Str str ->
    put_byte e 2;
    put_str e str
  | Obs.Bool b ->
    put_byte e 3;
    put_byte e (if b then 1 else 0)

let put_attrs e attrs =
  put_varint e (List.length attrs);
  List.iter
    (fun (k, v) ->
      put_str e k;
      put_value e v)
    attrs

let put_begin e ~session ~clock ~keep =
  let r = open_record e in
  put_byte e tag_begin;
  put_varint e session;
  put_varint e clock;
  put_byte e (keep_code keep);
  close_record e r

let put_end e ~session =
  let r = open_record e in
  put_byte e tag_end;
  put_varint e session;
  close_record e r

let put_span e (v : Obs.span_view) =
  let r = open_record e in
  put_byte e tag_span;
  put_varint e v.Obs.view_id;
  put_varint e (match v.Obs.view_parent with Some p -> p + 1 | None -> 0);
  put_str e v.Obs.view_phase;
  put_str e v.Obs.view_name;
  put_varint e v.Obs.view_start;
  put_varint e (zigzag v.Obs.view_stop);
  put_attrs e v.Obs.view_attrs;
  close_record e r

let put_event e span_id (ev : Obs.event_view) =
  let r = open_record e in
  put_byte e tag_event;
  put_varint e span_id;
  put_varint e ev.Obs.ev_vt;
  put_str e ev.Obs.ev_name;
  put_attrs e ev.Obs.ev_attrs;
  close_record e r

(* The spans and their events, in commit order; returns the record
   count. Once the encoding passes [cap] bytes the session cannot fit
   and is refused whole, so the remaining records are only counted. *)
let rec put_spans e ~cap records = function
  | [] -> records
  | (v : Obs.span_view) :: rest ->
    if e.len <= cap then put_span e v;
    let records =
      List.fold_left
        (fun n ev ->
          if e.len <= cap then put_event e v.Obs.view_id ev;
          n + 1)
        (records + 1) v.Obs.view_events
    in
    put_spans e ~cap records rest

(* -- committing one kept session -- *)

let record t ~keep obs =
  if not (Obs.enabled obs) then 0
  else begin
    let s = my_shard t in
    let session = Obs.session obs and clock = Obs.clock obs in
    let e = Domain.DLS.get enc_key in
    e.len <- 0;
    put_begin e ~session ~clock ~keep;
    let records = put_spans e ~cap:s.cap 2 (* begin + end *) (Obs.views obs) in
    put_end e ~session;
    let size = e.len in
    let dropped =
      Mutex.protect s.lock @@ fun () ->
      let dropped0 = s.dropped in
      if size > s.cap then
        (* the whole session cannot fit: refusing it outright is the only
           way to keep commits atomic (a partial write would evict its
           own head records) — the drop counter owns up to every one *)
        s.dropped <- s.dropped + records
      else begin
        (* evicting for the whole session at once frees exactly what
           evicting record by record would: the oldest whole records
           until the newest [size] bytes fit *)
        reserve s size;
        let off = s.total mod s.cap in
        let first = min size (s.cap - off) in
        Bytes.blit e.b 0 s.buf off first;
        Bytes.blit e.b first s.buf 0 (size - first);
        s.total <- s.total + size;
        s.written <- s.written + records;
        s.sessions <- s.sessions + 1
      end;
      s.dropped - dropped0
    in
    (* a session near or past the shard size grew the scratch; give
       that back rather than pin it for the domain's life *)
    if Bytes.length e.b > max enc_initial s.cap then e.b <- Bytes.create enc_initial;
    dropped
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
      let live = s.total - s.first in
      buf_varint b live;
      (* the live region, split where it wraps *)
      let off = s.first mod s.cap in
      let first = min live (s.cap - off) in
      Buffer.add_subbytes b s.buf off first;
      Buffer.add_subbytes b s.buf 0 (live - first);
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
