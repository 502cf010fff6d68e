(* The reference ring writer: the per-byte encoder {!Trust_obs.Ring}
   used before it encoded each session in one pass into scratch, kept in
   behaviour so the single-pass writer can be compared against it. A
   commit sizes the session in a first pass, then, under the shard lock,
   writes it record by record — reserving room for each record (evicting
   whole records from the front) and storing every byte with a [mod] of
   the capacity. Dumps copy the live region byte by byte. Same layout,
   same counters, same eviction order as the ring; tests only. *)

module Obs = Trust_obs.Obs
module Ring = Trust_obs.Ring

type shard = {
  lock : Mutex.t;
  buf : Bytes.t;
  cap : int;
  mutable first : int;
  mutable total : int;
  mutable written : int;
  mutable dropped : int;
  mutable sessions : int;
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
    slot = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next 1);
  }

let my_shard t = t.shards.(Domain.DLS.get t.slot mod Array.length t.shards)
let records_written t = Array.fold_left (fun acc s -> acc + s.written) 0 t.shards
let records_dropped t = Array.fold_left (fun acc s -> acc + s.dropped) 0 t.shards
let sessions_recorded t = Array.fold_left (fun acc s -> acc + s.sessions) 0 t.shards
let bytes_resident t = Array.fold_left (fun acc s -> acc + (s.total - s.first)) 0 t.shards

let keep_code = function
  | Ring.Sampled -> 0
  | Ring.Violation -> 1
  | Ring.Retry -> 2
  | Ring.Expiry -> 3
  | Ring.Lint -> 4

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
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

let put_str s str =
  put_varint s (String.length str);
  String.iter (fun c -> put_byte s (Char.code c)) str

let put_f64 s f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    put_byte s (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

let read_varint_at s off =
  let rec go off shift acc len =
    let b = Char.code (Bytes.unsafe_get s.buf (off mod s.cap)) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then (acc, len + 1) else go (off + 1) (shift + 7) acc (len + 1)
  in
  go off 0 0 0

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

let put_span s (v : Obs.span_view) =
  put_byte s 2;
  put_varint s v.Obs.view_id;
  put_varint s (match v.Obs.view_parent with Some p -> p + 1 | None -> 0);
  put_str s v.Obs.view_phase;
  put_str s v.Obs.view_name;
  put_varint s v.Obs.view_start;
  put_varint s (zigzag v.Obs.view_stop);
  put_attrs s v.Obs.view_attrs

let put_event s span_id (e : Obs.event_view) =
  put_byte s 3;
  put_varint s span_id;
  put_varint s e.Obs.ev_vt;
  put_str s e.Obs.ev_name;
  put_attrs s e.Obs.ev_attrs

let framed psize = varint_size psize + psize

let record t ~keep obs =
  if not (Obs.enabled obs) then 0
  else begin
    let s = my_shard t in
    let session = Obs.session obs and clock = Obs.clock obs in
    let views = Obs.views obs in
    let records = ref 2 and bytes = ref 0 in
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
    if !bytes > s.cap then s.dropped <- s.dropped + !records
    else begin
      put_record s (begin_size ~session ~clock) (fun s ->
          put_byte s 1;
          put_varint s session;
          put_varint s clock;
          put_byte s (keep_code keep));
      List.iter
        (fun (v : Obs.span_view) ->
          put_record s (span_size v) (fun s -> put_span s v);
          List.iter
            (fun e ->
              put_record s (event_size v.Obs.view_id e) (fun s -> put_event s v.Obs.view_id e))
            v.Obs.view_events)
        views;
      put_record s (end_size ~session) (fun s ->
          put_byte s 4;
          put_varint s session);
      s.sessions <- s.sessions + 1
    end;
    s.dropped - dropped0
  end

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
  Buffer.add_string b "TSR1";
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
