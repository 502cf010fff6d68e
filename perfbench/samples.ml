(* A growable buffer of float samples (microseconds or milliseconds,
   whatever the caller pushes). *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.; n = 0 }

let push t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.data 0 t.n
let sum t = Array.fold_left ( +. ) 0. (to_array t)

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

let mean t = Stats.mean (to_array t)
let percentile t q = Stats.percentile (sorted t) q

(* Monotonic nanoseconds: the clock every figure is measured on. *)
let now () = Monotonic_clock.now ()
let us_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e3
let s_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* [time t f] runs [f], pushing its duration in microseconds. *)
let time t f =
  let t0 = now () in
  let r = f () in
  push t (us_since t0);
  r

(* Mean of the last [k] samples pushed. *)
let mean_last t k =
  let k = min k t.n in
  Stats.mean (Array.sub t.data (t.n - k) k)

(* The host's total and stolen CPU ticks so far, from /proc/stat's
   "cpu" line; (0, 0) where it cannot be read. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> (0, 0)
  | None -> (0, 0)
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields -> (
      let ticks = List.filter_map int_of_string_opt fields in
      match List.nth_opt ticks 7 with
      | Some steal -> (List.fold_left ( + ) 0 ticks, steal)
      | None -> (0, 0))
    | _ -> (0, 0))

(* Print the share of CPU time the hypervisor took from this machine
   since [before] (a [cpu_ticks] reading). *)
let print_steal ~what (total0, steal0) =
  let total, steal = cpu_ticks () in
  if total > total0 then
    Printf.printf "steal during %s: %.2f%% of CPU time\n" what
      (100. *. float_of_int (steal - steal0) /. float_of_int (total - total0))
