(* The host's speed, measured beside the program.

   A shared host runs the same code at different speeds from minute to
   minute and from one vCPU to the other: the two vCPUs of one 2-vCPU VM
   have run this kernel in 1.0 and 1.7 ms in the same minute, and
   process CPU time moves with the wall clock, so it is the CPU's pace,
   not time stolen by other tenants. Two sets of runs of the same
   program then disagree by more than any bound a regression check can
   use. This module is a fixed reference kernel, timed in short slices
   interleaved with the program's work. The program's times are scaled
   by [ref_ms / slice], the speed of the host at that moment relative to
   a host on which one slice takes [ref_ms]: the program's own speed
   stays in the figure, the host's drops out.

   The kernel is the benchmark's own code, independent of the program,
   so no change to the program moves it. It does what the program's hot
   paths do between allocations: hashes and compares short strings,
   copies bytes, chases indices through a table the size of a core's L1
   data cache and branches on what it finds. It allocates nothing: in the
   batch workload it shares the program's process, and allocating would
   hand it a share of the program's garbage collection, which a change
   to the program would then move. *)

(* A slice takes about [ref_ms] on a host of the reference speed (a
   2.1 GHz Xeon vCPU at its usual pace). *)
let ref_ms = 1.0

let keys = Array.init 256 (fun i -> Printf.sprintf "party-%05d/asset-%03d" (i * 7919) (i land 63))

(* 32 KiB of next-indices: a fixed pseudo-random walk *)
let table = Array.init 4096 (fun i -> ((i * 2654435761) lsr 7) land 4095)
let buf = Bytes.create 4096

let rounds = 6000

(* One slice of fixed work; the result only keeps it from being
   optimised away. *)
let kernel () =
  let acc = ref 0 and at = ref 0 in
  for i = 0 to rounds - 1 do
    let a = keys.(i land 255) and b = keys.((i * 31) land 255) in
    acc := !acc + Hashtbl.hash a;
    if String.compare a b < 0 then incr acc;
    Bytes.blit_string a 0 buf ((i * 24) land 4071) (min 24 (String.length a));
    for _ = 1 to 8 do
      at := table.((!at + !acc) land 4095);
      if !at land 1 = 0 then acc := !acc + !at else acc := !acc lxor !at
    done
  done;
  !acc + Char.code (Bytes.get buf (!acc land 4095))

let sink = ref 0

(* Time one slice, in milliseconds. *)
let slice () =
  let t0 = Monotonic_clock.now () in
  sink := !sink lxor kernel ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6

(* The slice time for a program that runs on two CPUs: a second domain
   times [k] slices beside this one's [k], and the figure is the mean of
   the two domains' medians. When the two vCPUs run at different speeds
   it weighs both, where a median over all [2k] slices would side with
   whichever CPU took more of them. The domain is spawned and joined
   outside every clock. *)
let slice2 k =
  let run () = List.init k (fun _ -> slice ()) in
  let other = Domain.spawn run in
  let mine = run () in
  (Stats.median mine +. Stats.median (Domain.join other)) /. 2.

(* Warm the code and the tables before the first timed slice. *)
let warm () = for _ = 1 to 20 do ignore (slice ()) done
