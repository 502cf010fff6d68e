(* Domain-safe registry: counters are a single [Atomic.t] (lock-free
   increments from pool workers), histograms take a per-metric mutex,
   and registration takes the registry mutex. What renders a counter
   or a gauge is its read function, swapped by one field write, so it
   needs no lock: a pushed counter reads its atomic, a set gauge a
   constant, and a series another structure owns reads that. Reads
   for snapshots are unsynchronized-by-design *after* the scheduler's
   completion barrier; concurrent snapshots would only ever see a
   momentarily-torn histogram, never a crash. *)

type counter = { c_help : string; count : int Atomic.t; mutable c_read : unit -> int }

type histogram = {
  h_help : string;
  h_lock : Mutex.t;
  bounds : int array;  (** strictly increasing upper bounds, [+Inf] implicit *)
  counts : int array;  (** per-bucket (non-cumulative); length = bounds + 1 *)
  mutable sum : int;
  mutable total : int;
}

(* [g_volatile] marks timing telemetry (queue high-water marks, wait
   counts): real registry series, but excluded from the deterministic
   {!to_text}/{!to_json} snapshots and rendered by {!volatile_text}
   instead — the same quarantine the service applies to wall-clock. *)
type gauge = { g_help : string; g_volatile : bool; mutable g_read : unit -> float }

type metric = Counter of counter | Histogram of histogram | Gauge of gauge

type t = { lock : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

let default_buckets = [ 1; 2; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000 ]

let register t name metric =
  Mutex.lock t.lock;
  let resolved =
    match Hashtbl.find_opt t.table name with
    | None ->
      Hashtbl.add t.table name metric;
      metric
    | Some existing -> existing
  in
  Mutex.unlock t.lock;
  resolved

let counter t ?(help = "") name =
  let count = Atomic.make 0 in
  match register t name (Counter { c_help = help; count; c_read = (fun () -> Atomic.get count) }) with
  | Counter c -> c
  | Histogram _ | Gauge _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.count by)
let value c = c.c_read ()
let counter_read t ?help name read = (counter t ?help name).c_read <- read

let histogram t ?(help = "") ?(buckets = default_buckets) name =
  (match buckets with
  | [] -> invalid_arg "Metrics.histogram: empty bucket list"
  | _ :: rest ->
    ignore
      (List.fold_left
         (fun prev b ->
           if b <= prev then invalid_arg "Metrics.histogram: buckets must increase";
           b)
         (List.hd buckets) rest));
  let fresh =
    Histogram
      {
        h_help = help;
        h_lock = Mutex.create ();
        bounds = Array.of_list buckets;
        counts = Array.make (List.length buckets + 1) 0;
        sum = 0;
        total = 0;
      }
  in
  match register t name fresh with
  | Histogram h -> h
  | Counter _ | Gauge _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let observe h v =
  let rec slot i = if i >= Array.length h.bounds || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  Mutex.lock h.h_lock;
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum + v;
  h.total <- h.total + 1;
  Mutex.unlock h.h_lock

let gauge_read t ?(help = "") ?(volatile = false) name read =
  match register t name (Gauge { g_help = help; g_volatile = volatile; g_read = read }) with
  | Gauge g -> g.g_read <- read
  | Counter _ | Histogram _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let gauge t ?help ?volatile name v = gauge_read t ?help ?volatile name (Fun.const v)

let sorted t =
  Mutex.lock t.lock;
  let snapshot = Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.table [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) snapshot

let to_text t =
  let buf = Buffer.create 1024 in
  let help name h = if h <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name h) in
  let typ name kind = Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind) in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter c ->
        help name c.c_help;
        typ name "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name (value c))
      | Gauge g when g.g_volatile -> ()
      | Gauge g ->
        help name g.g_help;
        typ name "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %.6f\n" name (g.g_read ()))
      | Histogram h ->
        help name h.h_help;
        typ name "histogram";
        let cumulative = ref 0 in
        Array.iteri
          (fun i n ->
            cumulative := !cumulative + n;
            let le =
              if i < Array.length h.bounds then string_of_int h.bounds.(i) else "+Inf"
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le !cumulative))
          h.counts;
        Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name h.sum);
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.total))
    (sorted t);
  Buffer.contents buf

let dump = to_text

let to_json t =
  let metrics = sorted t in
  let pick f = List.filter_map f metrics in
  let counters =
    pick (function
      | name, Counter c -> Some (Printf.sprintf "%S:%d" name (value c))
      | _ -> None)
  in
  let gauges =
    pick (function
      | name, Gauge g when not g.g_volatile -> Some (Printf.sprintf "%S:%.6f" name (g.g_read ()))
      | _ -> None)
  in
  let histograms =
    pick (function
      | name, Histogram h ->
        let cumulative = ref 0 in
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i n ->
                 cumulative := !cumulative + n;
                 let le =
                   if i < Array.length h.bounds then string_of_int h.bounds.(i) else "+Inf"
                 in
                 Printf.sprintf "%S:%d" le !cumulative)
               h.counts)
        in
        Some
          (Printf.sprintf "%S:{\"buckets\":{%s},\"sum\":%d,\"count\":%d}" name
             (String.concat "," buckets) h.sum h.total)
      | _ -> None)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counters) (String.concat "," gauges) (String.concat "," histograms)

let volatile_text t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Gauge g when g.g_volatile ->
        Buffer.add_string buf (Printf.sprintf "%s %.6f\n" name (g.g_read ()))
      | Gauge _ | Counter _ | Histogram _ -> ())
    (sorted t);
  Buffer.contents buf
