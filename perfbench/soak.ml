(* The daemon workloads' end-to-end half: spawn the real [trustseq
   serve] binary with its shipped defaults, drive it over one
   closed-loop client connection, and drain it with SIGTERM. *)

module Client = Trust_daemon.Client
module Wire = Trust_daemon.Wire

let run_dir = ".bench_run"

type child = { pid : int; socket : string; log : string; mutable reaped : bool }

(* Children still running; killed by [kill_all] when the benchmark
   exits early, so no daemon outlives its run. *)
let live : child list ref = ref []

let kill_all () =
  List.iter
    (fun c ->
      if not c.reaped then begin
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
        c.reaped <- true
      end;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ c.socket; c.log ])
    !live;
  live := [];
  (* the run directory goes too once no run is using it *)
  try Unix.rmdir run_dir with Unix.Unix_error _ -> ()

let () = at_exit kill_all

(* -- one CPU for the closed loop --

   The client and the daemon never run at once, so they share one CPU:
   a round trip then switches processes on that CPU instead of waking an
   idle virtual CPU, a cost that belongs to the hypervisor and swings
   with the host's load. Pinning goes through taskset(1); without it
   everything runs unpinned. *)

let taskset args =
  match Unix.open_process_args_in "taskset" (Array.of_list ("taskset" :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let out = In_channel.input_all ic in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)

(* "pid 42's current affinity list: 0,2-3" -> "0,2-3" *)
let affinity pid =
  Option.bind (taskset [ "-cp"; string_of_int pid ]) (fun out ->
      match String.rindex_opt out ':' with
      | Some i -> Some (String.trim (String.sub out (i + 1) (String.length out - i - 1)))
      | None -> None)

type pin = { cpu : string; saved : string }

(* Pin this process to the last CPU it may use; [None] when taskset is
   missing or fails. *)
let pin_self () =
  let pid = Unix.getpid () in
  Option.bind (affinity pid) (fun saved ->
      let last = List.hd (List.rev (String.split_on_char ',' saved)) in
      let cpu =
        match String.index_opt last '-' with
        | Some i -> String.sub last (i + 1) (String.length last - i - 1)
        | None -> last
      in
      Option.map (fun _ -> { cpu; saved }) (taskset [ "-cp"; cpu; string_of_int pid ]))

let unpin = function
  | None -> ()
  | Some p -> ignore (taskset [ "-cp"; p.saved; string_of_int (Unix.getpid ()) ])

let spawn ~pin ~trustseq ~tag =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  (* a fresh socket path per daemon: nothing left over from an earlier
     run can answer in its place *)
  let socket = Filename.concat run_dir (Printf.sprintf "d%d-%s.sock" (Unix.getpid ()) tag) in
  let log = socket ^ ".log" in
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let serve = [ trustseq; "serve"; "--socket"; socket ] in
  let argv = match pin with Some p -> "taskset" :: "-c" :: p.cpu :: serve | None -> serve in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) stdin_r out out in
  Unix.close stdin_r;
  Unix.close out;
  let c = { pid; socket; log; reaped = false } in
  live := c :: !live;
  c

let exited c =
  (not c.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> false
  | _ ->
    c.reaped <- true;
    true
  | exception Unix.Unix_error _ -> false

(* Connect once the daemon listens: the welcome ends the spawn phase. *)
let connect c =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    if exited c then Error "daemon exited before listening"
    else if not (Sys.file_exists c.socket) then
      if Unix.gettimeofday () > deadline then Error "daemon socket never appeared"
      else begin
        Unix.sleepf 0.001;
        go ()
      end
    else
      match Client.connect ("unix:" ^ c.socket) with
      | Ok client -> Ok client
      | Error _ when Unix.gettimeofday () <= deadline ->
        Unix.sleepf 0.001;
        go ()
      | Error e -> Error e
  in
  go ()

let peak_rss_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          String.to_seq line
          |> Seq.filter (fun ch -> ch >= '0' && ch <= '9')
          |> String.of_seq |> int_of_string
        else acc)
      0 (String.split_on_char '\n' text)

(* The served count from the daemon's "drained {...}" status line. *)
let drained_served log =
  match In_channel.with_open_text log In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    let key = "\"served\":" in
    let rec scan = function
      | [] -> None
      | line :: rest -> (
        match String.starts_with ~prefix:"trustseq serve: drained " line with
        | false -> scan rest
        | true -> (
          let rec find i =
            if i + String.length key > String.length line then None
            else if String.sub line i (String.length key) = key then Some (i + String.length key)
            else find (i + 1)
          in
          match find 0 with
          | None -> None
          | Some start ->
            let stop = ref start in
            while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
              incr stop
            done;
            int_of_string_opt (String.sub line start (!stop - start))))
    in
    scan (String.split_on_char '\n' text)

(* SIGTERM must drain: exit 0, the socket unlinked, every request
   answered. [Error] names what went wrong; the child is reaped (killed
   if it ignores the signal) either way. *)
let drain c ~expect_served =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      Unix.kill c.pid Sys.sigkill;
      ignore (Unix.waitpid [] c.pid);
      Error "daemon ignored SIGTERM"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "daemon drained with exit %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Error (Printf.sprintf "daemon killed by signal %d" n)
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let status =
    if c.reaped then Error "daemon crashed"
    else begin
      let r = wait () in
      c.reaped <- true;
      r
    end
  in
  let status =
    match status with
    | Error _ -> status
    | Ok () when Sys.file_exists c.socket -> Error "socket left behind after drain"
    | Ok () -> (
      match drained_served c.log with
      | Some n when n = expect_served -> Ok ()
      | Some n -> Error (Printf.sprintf "daemon served %d, client sent %d" n expect_served)
      | None -> Error "no drained status line")
  in
  (try Sys.remove c.log with Sys_error _ -> ());
  (try Sys.remove c.socket with Sys_error _ -> ());
  live := List.filter (fun x -> x != c) !live;
  status

let outcome_of_result = function
  | Wire.Result r ->
    Some
      {
        Stats.status = r.status;
        ticks = r.ticks;
        events = r.events;
        attempts = r.attempts;
        exposure_peak = r.exposure_peak;
        exposure_ticks = r.exposure_ticks;
        exposure_violations = r.exposure_violations;
      }
  | _ -> None

type drive = {
  outcomes : Stats.outcome option array;  (** per request; [None] = failed *)
  sent : int;  (** requests attempted *)
  failed : int;
  hits : int;  (** responses served from the daemon's protocol cache *)
  rtt_ms : Samples.t;
  done_s : Samples.t;
      (** completion time of each response, seconds into the run, not
          counting the calibration slices *)
  slice_ms : Samples.t;  (** calibration slices, one per [calibrate] responses *)
  error : string option;  (** why the connection was abandoned, if it was *)
}

(* Closed loop over [texts]: each request waits for its reply. With
   [seconds] the loop stops once that much time has passed, going round
   [texts] again if it gets to the end; without, it stops there. Request ids
   continue from [first_id] so the daemon's session ids line up with
   the in-process replay. [at = (k, f)] calls [f] once [k] requests
   have been sent. With [calibrate = k], a {!Calib.slice} runs after
   every [k]-th response, off the clock of the responses. *)
let drive ?seconds ?at ?calibrate client ~first_id texts =
  let n = Array.length texts in
  let outcomes = ref [] in
  let rtt = Samples.create () in
  let done_s = Samples.create () in
  let slices = Samples.create () in
  let calib_s = ref 0. in
  let failed = ref 0 and hits = ref 0 and sent = ref 0 and error = ref None in
  let start = Samples.now () in
  let budget_ns = Option.map (fun s -> Int64.of_float (s *. 1e9)) seconds in
  let over () =
    match budget_ns with
    | None -> false
    | Some b -> Int64.compare (Int64.sub (Samples.now ()) start) b >= 0
  in
  let i = ref 0 in
  while (!i < n || seconds <> None) && !error = None && not (over ()) do
    let t0 = Samples.now () in
    let resp = Client.submit client ~id:(first_id + !i) ~spec:texts.(!i mod n) in
    let ms = Int64.to_float (Int64.sub (Samples.now ()) t0) /. 1e6 in
    incr sent;
    (match resp with
    | Ok (Wire.Result { status; cache_hit; _ } as r) when status <> "error" ->
      Samples.push rtt ms;
      Samples.push done_s (Samples.s_since start -. !calib_s);
      if cache_hit then incr hits;
      outcomes := outcome_of_result r :: !outcomes;
      (match calibrate with
      | Some k when Samples.count rtt mod k = 0 ->
        let c = Calib.slice () in
        Samples.push slices c;
        calib_s := !calib_s +. (c /. 1e3)
      | Some _ | None -> ())
    | Ok (Wire.Result _ as r) ->
      (* the daemon could not parse a generated spec *)
      incr failed;
      outcomes := outcome_of_result r :: !outcomes
    | Ok (Wire.Busy _) ->
      incr failed;
      outcomes := None :: !outcomes
    | Ok (Wire.Refused { reason; _ }) ->
      incr failed;
      outcomes := None :: !outcomes;
      error := Some ("refused: " ^ reason)
    | Ok _ ->
      incr failed;
      outcomes := None :: !outcomes;
      error := Some "unexpected response to submit"
    | Error e ->
      incr failed;
      outcomes := None :: !outcomes;
      error := Some e);
    incr i;
    match at with Some (k, f) when k = !sent -> f () | Some _ | None -> ()
  done;
  {
    outcomes = Array.of_list (List.rev !outcomes);
    sent = !sent;
    failed = !failed;
    hits = !hits;
    rtt_ms = rtt;
    done_s;
    slice_ms = slices;
    error = !error;
  }
