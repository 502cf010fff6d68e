type t = {
  mutable store : bytes;
  mutable front : int;  (** first unread byte *)
  mutable back : int;  (** one past the last unread byte *)
}

let create n = { store = Bytes.create (max n 16); front = 0; back = 0 }
let length q = q.back - q.front

let clear q =
  q.front <- 0;
  q.back <- 0

(* Make room for [n] more bytes at the back. *)
let reserve q n =
  let cap = Bytes.length q.store in
  if q.back + n > cap then begin
    let live = length q in
    let dst =
      if live + n <= cap && q.front >= live then q.store
      else Bytes.create (max (live + n) (2 * cap))
    in
    Bytes.blit q.store q.front dst 0 live;
    q.store <- dst;
    q.front <- 0;
    q.back <- live
  end

let add_subbytes q b off len =
  reserve q len;
  Bytes.blit b off q.store q.back len;
  q.back <- q.back + len

let add_string q s =
  let len = String.length s in
  reserve q len;
  Bytes.blit_string s 0 q.store q.back len;
  q.back <- q.back + len

let get_uint8 q i =
  if i < 0 || i >= length q then invalid_arg "Bytebuf.get_uint8";
  Bytes.get_uint8 q.store (q.front + i)

let sub_string q pos len =
  if pos < 0 || len < 0 || pos + len > length q then invalid_arg "Bytebuf.sub_string";
  Bytes.sub_string q.store (q.front + pos) len

let consume q n =
  if n < 0 || n > length q then invalid_arg "Bytebuf.consume";
  q.front <- q.front + n;
  if q.front = q.back then clear q

let write q fd = consume q (Unix.write fd q.store q.front (length q))
