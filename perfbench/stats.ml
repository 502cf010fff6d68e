let rank n q =
  (* nearest rank, 1-based: the smallest r with r / n >= q *)
  max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(rank n q - 1)

let beyond n q = if n = 0 then 0 else n - rank n q

let tail_quantile n =
  match List.find_opt (fun q -> beyond n q >= 10) [ 0.999; 0.99; 0.9 ] with
  | Some q -> q
  | None -> 0.5

let quantile_label q =
  let pct = q *. 100. in
  if Float.is_integer pct then Printf.sprintf "p%.0f" pct else Printf.sprintf "p%g" pct

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. a /. float_of_int n

let median = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type outcome = {
  status : string;
  ticks : int;
  events : int;
  attempts : int;
  exposure_peak : int;
  exposure_ticks : int;
  exposure_violations : int;
}

let outcome_line o =
  Printf.sprintf "%s %d %d %d %d %d %d" o.status o.ticks o.events o.attempts o.exposure_peak
    o.exposure_ticks o.exposure_violations

type digest = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fold_byte h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let empty_digest = fnv_offset

let fold h o =
  let h = ref h in
  String.iter (fun c -> h := fold_byte !h c) (outcome_line o);
  fold_byte !h '\n'

let digest_hex h = Printf.sprintf "%016Lx" h
let digest_of_list os = digest_hex (List.fold_left fold empty_digest os)

let unattributed_share ~e2e_mean ~stages =
  if e2e_mean <= 0. then Float.nan
  else (e2e_mean -. List.fold_left ( +. ) 0. stages) /. e2e_mean

let per_item_us ~wall_s ~items =
  if items <= 0 then Float.nan else wall_s *. 1e6 /. float_of_int items

let ratio a b = if b <= 0. then Float.nan else a /. b

let block_bounds ~size n =
  if size <= 0 then invalid_arg "Stats: block size must be positive";
  if n = 0 then [] else if n < size then [ (0, n) ] else List.init (n / size) (fun j -> (j * size, size))

let block_quantiles ~size values q =
  List.map
    (fun (off, len) ->
      let b = Array.sub values off len in
      Array.sort Float.compare b;
      percentile b q)
    (block_bounds ~size (Array.length values))

let block_rates ~size times =
  List.map
    (fun (off, len) ->
      let t0 = if off = 0 then 0. else times.(off - 1) in
      float_of_int len /. (times.(off + len - 1) -. t0))
    (block_bounds ~size (Array.length times))

type per = Time | Rate

let scale ~ref_ms per slice v =
  match per with Time -> v *. ref_ms /. slice | Rate -> v *. slice /. ref_ms

let at_reference ~ref_ms ~window ~slices per values =
  if window <= 0 then invalid_arg "Stats: window must be positive";
  let slices = Array.of_list slices in
  let n = min (Array.length values) (window * Array.length slices) in
  Array.init n (fun k -> scale ~ref_ms per slices.(k / window) values.(k))
