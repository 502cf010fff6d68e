let default_max = 1 lsl 20

let encode payload =
  let n = String.length payload in
  if n > 0x7FFFFFFF then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = {
  max_frame : int;
  pending : Bytebuf.t;  (** unread bytes; a frame header leads them *)
  mutable poisoned : bool;
}

type event = Frame of string | Oversized of int

let create ?(max_frame = default_max) () =
  if max_frame <= 0 then invalid_arg "Frame.create: max_frame must be positive";
  { max_frame; pending = Bytebuf.create 256; poisoned = false }

let header_length q =
  (Bytebuf.get_uint8 q 0 lsl 24)
  lor (Bytebuf.get_uint8 q 1 lsl 16)
  lor (Bytebuf.get_uint8 q 2 lsl 8)
  lor Bytebuf.get_uint8 q 3

(* Each complete frame is copied out once and consumed from the front;
   the bytes behind it stay where they are. *)
let rec drain d acc =
  let q = d.pending in
  if Bytebuf.length q < 4 then List.rev acc
  else
    let n = header_length q in
    if n > d.max_frame then begin
      d.poisoned <- true;
      Bytebuf.clear q;
      List.rev (Oversized n :: acc)
    end
    else if Bytebuf.length q < 4 + n then List.rev acc
    else begin
      let payload = Bytebuf.sub_string q 4 n in
      Bytebuf.consume q (4 + n);
      drain d (Frame payload :: acc)
    end

let feed d buf len =
  if d.poisoned then []
  else begin
    Bytebuf.add_subbytes d.pending buf 0 len;
    drain d []
  end

let feed_string d s =
  if d.poisoned then []
  else begin
    Bytebuf.add_string d.pending s;
    drain d []
  end

let buffered d = Bytebuf.length d.pending
let mid_frame d = Bytebuf.length d.pending > 0
let poisoned d = d.poisoned

let write_frame fd payload =
  let s = encode payload in
  let b = Bytes.unsafe_of_string s in
  let total = Bytes.length b in
  let off = ref 0 in
  while !off < total do
    match Unix.write fd b !off (total - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", "frame"))
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
