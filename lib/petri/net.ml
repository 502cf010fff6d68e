type place = int
type transition = int

type tr = { t_name : string; t_pre : (place * int) list; t_post : (place * int) list }

(* Growable-array storage: the analyses fire transitions in tight BFS
   loops, so lookups must be O(1). *)
type t = {
  mutable place_names : string array;
  mutable n_places : int;
  mutable transitions : tr array;
  mutable n_transitions : int;
}

let dummy_tr = { t_name = ""; t_pre = []; t_post = [] }

let create () =
  { place_names = Array.make 8 ""; n_places = 0; transitions = Array.make 8 dummy_tr; n_transitions = 0 }

let grow arr size fill =
  if size < Array.length arr then arr
  else begin
    let arr' = Array.make (2 * Array.length arr) fill in
    Array.blit arr 0 arr' 0 size;
    arr'
  end

let add_place ?name t =
  let id = t.n_places in
  let name = match name with Some n -> n | None -> Printf.sprintf "p%d" id in
  t.place_names <- grow t.place_names id "";
  t.place_names.(id) <- name;
  t.n_places <- id + 1;
  id

let check_arcs t arcs =
  List.iter
    (fun (p, w) ->
      if w <= 0 then invalid_arg "Net.add_transition: non-positive weight";
      if p < 0 || p >= t.n_places then invalid_arg "Net.add_transition: unknown place")
    arcs

let add_transition ?name t ~pre ~post =
  check_arcs t pre;
  check_arcs t post;
  let id = t.n_transitions in
  let t_name = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  t.transitions <- grow t.transitions id dummy_tr;
  t.transitions.(id) <- { t_name; t_pre = pre; t_post = post };
  t.n_transitions <- id + 1;
  id

let place_count t = t.n_places
let transition_count t = t.n_transitions

let check_place t p =
  if p < 0 || p >= t.n_places then invalid_arg "Net: unknown place"

let check_transition t id =
  if id < 0 || id >= t.n_transitions then invalid_arg "Net: unknown transition"

let place_name t p =
  check_place t p;
  t.place_names.(p)

let transition_name t id =
  check_transition t id;
  t.transitions.(id).t_name

let pre t id =
  check_transition t id;
  t.transitions.(id).t_pre

let post t id =
  check_transition t id;
  t.transitions.(id).t_post

module Marking = struct
  type net = t
  type t = int array

  let initial net tokens =
    let m = Array.make net.n_places 0 in
    List.iter
      (fun (p, n) ->
        if p < 0 || p >= net.n_places then invalid_arg "Marking.initial: unknown place";
        m.(p) <- m.(p) + n)
      tokens;
    m

  let tokens m p = m.(p)

  let set m p n =
    let m' = Array.copy m in
    m'.(p) <- n;
    m'

  let equal (a : t) b = a = b
  let compare = Stdlib.compare
  let hash (m : t) = Hashtbl.hash m
  let covers m target = Array.for_all2 (fun have need -> have >= need) m target
  let to_array m = Array.copy m

  let pp net ppf m =
    Format.fprintf ppf "@[<h>{";
    Array.iteri
      (fun p n -> if n > 0 then Format.fprintf ppf " %s:%d" (place_name net p) n)
      m;
    Format.fprintf ppf " }@]"
end

let enabled t (m : Marking.t) id =
  check_transition t id;
  List.for_all (fun (p, w) -> m.(p) >= w) t.transitions.(id).t_pre

let fire t m id =
  if not (enabled t m id) then invalid_arg "Net.fire: transition not enabled";
  let tr = t.transitions.(id) in
  let m' = Array.copy m in
  List.iter (fun (p, w) -> m'.(p) <- m'.(p) - w) tr.t_pre;
  List.iter (fun (p, w) -> m'.(p) <- m'.(p) + w) tr.t_post;
  m'

let enabled_transitions t m =
  let rec scan id acc =
    if id < 0 then acc else scan (id - 1) (if enabled t m id then id :: acc else acc)
  in
  scan (t.n_transitions - 1) []

let pp_arcs t ppf arcs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "+")
    (fun ppf (p, w) -> Format.fprintf ppf "%d'%s" w (place_name t p))
    ppf arcs

let pp ppf t =
  Format.fprintf ppf "@[<v>petri net: %d places, %d transitions" t.n_places t.n_transitions;
  for id = 0 to t.n_transitions - 1 do
    let tr = t.transitions.(id) in
    Format.fprintf ppf "@,  %s: %a -> %a" tr.t_name (pp_arcs t) tr.t_pre (pp_arcs t) tr.t_post
  done;
  Format.fprintf ppf "@]"
