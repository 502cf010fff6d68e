(* Structured tracing with deterministic virtual timestamps: one
   monotonic counter per trace ticks on every span begin/end and event,
   so exports depend only on the instrumented computation — never on
   wall time or domain scheduling. Spans hold no wall instants, and
   scheduling facts are kept on the side (never exported), mirroring
   the Metrics/Service.wall_line quarantine. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event_view = { ev_name : string; ev_vt : int; ev_attrs : (string * value) list }
type ev = event_view

type sp = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_phase : string;
  sp_start : int;
  mutable sp_stop : int;  (* -1 while open *)
  mutable sp_attrs : (string * value) list;  (* reversed *)
  mutable sp_vattrs : (string * value) list;  (* volatile: reversed, never exported *)
  mutable sp_events : ev list;  (* reversed *)
}

type trace = {
  tr_session : int;
  mutable tr_clock : int;
  mutable tr_next : int;
  mutable tr_spans : sp list;  (* reversed creation order *)
}

type t = Null | Active of trace
type handle = sp option

let null = Null
let none : handle = None

let create ?(session = 0) () =
  Active { tr_session = session; tr_clock = 0; tr_next = 0; tr_spans = [] }

let enabled = function Null -> false | Active _ -> true
let session = function Null -> 0 | Active tr -> tr.tr_session
let clock = function Null -> 0 | Active tr -> tr.tr_clock

let tick tr =
  let c = tr.tr_clock in
  tr.tr_clock <- c + 1;
  c

let span t ?(parent = none) ~phase name : handle =
  match t with
  | Null -> None
  | Active tr ->
    let sp =
      {
        sp_id = tr.tr_next;
        sp_parent = (match parent with Some p -> Some p.sp_id | None -> None);
        sp_name = name;
        sp_phase = phase;
        sp_start = tick tr;
        sp_stop = -1;
        sp_attrs = [];
        sp_vattrs = [];
        sp_events = [];
      }
    in
    tr.tr_next <- tr.tr_next + 1;
    tr.tr_spans <- sp :: tr.tr_spans;
    Some sp

let finish t h =
  match (t, h) with
  | Active tr, Some sp -> sp.sp_stop <- tick tr
  | (Null | Active _), _ -> ()

let with_span t ?parent ~phase name f =
  match t with
  | Null -> f none
  | Active _ ->
    let h = span t ?parent ~phase name in
    Fun.protect ~finally:(fun () -> finish t h) (fun () -> f h)

let event t h ?(attrs = []) name =
  match (t, h) with
  | Active tr, Some sp ->
    sp.sp_events <- { ev_name = name; ev_vt = tick tr; ev_attrs = attrs } :: sp.sp_events
  | (Null | Active _), _ -> ()

let attr t h k v =
  match (t, h) with
  | Active _, Some sp -> sp.sp_attrs <- (k, v) :: sp.sp_attrs
  | (Null | Active _), _ -> ()

let volatile_attr t h k v =
  match (t, h) with
  | Active _, Some sp -> sp.sp_vattrs <- (k, v) :: sp.sp_vattrs
  | (Null | Active _), _ -> ()

let first_root t : handle =
  match t with
  | Null -> None
  | Active tr ->
    List.fold_left
      (fun acc sp -> if sp.sp_parent = None then Some sp else acc)
      None tr.tr_spans

(* Batch registry: one slot per session, each written by exactly one
   domain; the scheduler's completion barrier publishes the slots
   before the merge phase (and any export) reads them. *)

type batch = Disabled | Slots of trace option array

let no_batch = Disabled
let batch ~enabled ~sessions = if enabled then Slots (Array.make (max 0 sessions) None) else Disabled
let batch_enabled = function Disabled -> false | Slots _ -> true

let session_trace b i =
  match b with
  | Disabled -> Null
  | Slots slots ->
    if i < 0 || i >= Array.length slots then Null
    else (
      match slots.(i) with
      | Some tr -> Active tr
      | None ->
        let tr = { tr_session = i; tr_clock = 0; tr_next = 0; tr_spans = [] } in
        slots.(i) <- Some tr;
        Active tr)

let batch_traces = function
  | Disabled -> []
  | Slots slots ->
    Array.to_list slots |> List.filter_map (Option.map (fun tr -> Active tr))

(* Exporters *)

type format = Jsonl | Chrome | Tree | Folded

let format_names = [ "jsonl"; "chrome"; "tree"; "folded" ]

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | "tree" -> Some Tree
  | "folded" -> Some Folded
  | _ -> None

let value_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | Bool b -> if b then "true" else "false"

let value_text = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> s
  | Bool b -> if b then "true" else "false"

let attrs_json attrs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) (value_json v)) attrs)

let live ts = List.filter_map (function Null -> None | Active tr -> Some tr) ts

let span_order tr = List.rev tr.tr_spans
let event_order sp = List.rev sp.sp_events
let attr_order sp = List.rev sp.sp_attrs

(* Span views: the exporters' eye view of a trace, made public so the
   analysis layer computes over in-memory traces and re-parsed JSONL
   with the same code. Volatile attrs are dropped here, once. *)

type span_view = {
  view_session : int;
  view_id : int;
  view_parent : int option;
  view_phase : string;
  view_name : string;
  view_start : int;
  view_stop : int;
  view_attrs : (string * value) list;
  view_events : event_view list;
}

let views = function
  | Null -> []
  | Active tr ->
    List.map
      (fun sp ->
        {
          view_session = tr.tr_session;
          view_id = sp.sp_id;
          view_parent = sp.sp_parent;
          view_phase = sp.sp_phase;
          view_name = sp.sp_name;
          view_start = sp.sp_start;
          view_stop = sp.sp_stop;
          view_attrs = attr_order sp;
          view_events = event_order sp;
        })
      (span_order tr)

(* The inverse of [views], for offline decoders (Ring): rebuild an
   Active trace from span views so the byte-for-byte exporters above
   re-emit exactly what the original trace would have. Volatile attrs
   are gone by construction — no exporter ever rendered them. [clock]
   restores the tree header's vt range. *)
let of_views ~session ~clock views =
  let spans =
    List.map
      (fun v ->
        {
          sp_id = v.view_id;
          sp_parent = v.view_parent;
          sp_name = v.view_name;
          sp_phase = v.view_phase;
          sp_start = v.view_start;
          sp_stop = v.view_stop;
          sp_attrs = List.rev v.view_attrs;
          sp_vattrs = [];
          sp_events = List.rev v.view_events;
        })
      views
  in
  let next = List.fold_left (fun acc sp -> max acc (sp.sp_id + 1)) 0 spans in
  Active { tr_session = session; tr_clock = clock; tr_next = next; tr_spans = List.rev spans }

let jsonl ?producer ts =
  let buf = Buffer.create 4096 in
  (match producer with
  | Some p -> Buffer.add_string buf (Printf.sprintf "{\"type\":\"meta\",\"producer\":\"%s\"}\n" (Json.escape p))
  | None -> ());
  List.iter
    (fun tr ->
      List.iter
        (fun sp ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"span\",\"session\":%d,\"id\":%d,\"parent\":%s,\"phase\":\"%s\",\"name\":\"%s\",\"start\":%d,\"stop\":%d,\"attrs\":{%s}}\n"
               tr.tr_session sp.sp_id
               (match sp.sp_parent with Some p -> string_of_int p | None -> "null")
               (Json.escape sp.sp_phase) (Json.escape sp.sp_name) sp.sp_start sp.sp_stop
               (attrs_json (attr_order sp)));
          List.iter
            (fun e ->
              Buffer.add_string buf
                (Printf.sprintf
                   "{\"type\":\"event\",\"session\":%d,\"span\":%d,\"vt\":%d,\"name\":\"%s\",\"attrs\":{%s}}\n"
                   tr.tr_session sp.sp_id e.ev_vt (Json.escape e.ev_name)
                   (attrs_json e.ev_attrs)))
            (event_order sp))
        (span_order tr))
    ts;
  Buffer.contents buf

let chrome ?producer ts =
  let entries = ref [] in
  let push s = entries := s :: !entries in
  List.iter
    (fun tr ->
      (match producer with
      | Some p ->
        push
          (Printf.sprintf
             "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
             tr.tr_session (Json.escape p))
      | None -> ());
      List.iter
        (fun sp ->
          let stop = if sp.sp_stop < 0 then sp.sp_start else sp.sp_stop in
          push
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":0,\"args\":{%s}}"
               (Json.escape sp.sp_name) (Json.escape sp.sp_phase) sp.sp_start
               (stop - sp.sp_start) tr.tr_session
               (attrs_json (attr_order sp)));
          List.iter
            (fun e ->
              push
                (Printf.sprintf
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":%d,\"tid\":0,\"s\":\"t\",\"args\":{%s}}"
                   (Json.escape e.ev_name) (Json.escape sp.sp_phase) e.ev_vt tr.tr_session
                   (attrs_json e.ev_attrs)))
            (event_order sp))
        (span_order tr))
    ts;
  "[" ^ String.concat ",\n " (List.rev !entries) ^ "]\n"

let tree ts =
  let buf = Buffer.create 4096 in
  List.iter
    (fun tr ->
      Buffer.add_string buf (Printf.sprintf "trace session=%d (vt 0..%d)\n" tr.tr_session tr.tr_clock);
      let spans = span_order tr in
      let children id = List.filter (fun sp -> sp.sp_parent = Some id) spans in
      let rec render prefix sp =
        let attrs =
          match attr_order sp with
          | [] -> ""
          | attrs ->
            " "
            ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (value_text v)) attrs)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s [%s] vt %d..%s%s\n" prefix sp.sp_name sp.sp_phase sp.sp_start
             (if sp.sp_stop < 0 then "?" else string_of_int sp.sp_stop)
             attrs);
        List.iter
          (fun e ->
            let attrs =
              match e.ev_attrs with
              | [] -> ""
              | attrs ->
                " "
                ^ String.concat " "
                    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (value_text v)) attrs)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s  . %s vt=%d%s\n" prefix e.ev_name e.ev_vt attrs))
          (event_order sp);
        List.iter (render (prefix ^ "  ")) (children sp.sp_id)
      in
      List.iter (fun sp -> if sp.sp_parent = None then render "  " sp) spans)
    ts;
  Buffer.contents buf

(* Folded stacks (flamegraph input): one line per span, the frame stack
   from root to span joined with ';' followed by the span's self virtual
   time. Children occupy disjoint vt sub-ranges of their parent (the
   clock is per-trace monotonic), so self time is never negative on
   finished spans and one session's counts sum back to its root
   durations. Separators are escaped so a name containing ';' cannot
   forge a stack level. *)

let folded_frame name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | ';' -> Buffer.add_string buf "\\;"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | ' ' -> Buffer.add_char buf '_'
      | c -> Buffer.add_char buf c)
    name;
  Buffer.contents buf

let render_folded vs =
  let buf = Buffer.create 4096 in
  let sessions =
    List.fold_left
      (fun acc v -> if List.mem v.view_session acc then acc else v.view_session :: acc)
      [] vs
    |> List.rev
  in
  List.iter
    (fun s ->
      let vs = List.filter (fun v -> v.view_session = s) vs in
      let by_id = Hashtbl.create 64 in
      List.iter (fun v -> Hashtbl.replace by_id v.view_id v) vs;
      let dur v = if v.view_stop < 0 then 0 else v.view_stop - v.view_start in
      let child_vt = Hashtbl.create 64 in
      List.iter
        (fun v ->
          match v.view_parent with
          | None -> ()
          | Some p ->
            Hashtbl.replace child_vt p
              (dur v + (try Hashtbl.find child_vt p with Not_found -> 0)))
        vs;
      let rec stack v acc =
        let acc = folded_frame v.view_name :: acc in
        match v.view_parent with
        | None -> acc
        | Some p -> (
          match Hashtbl.find_opt by_id p with None -> acc | Some pv -> stack pv acc)
      in
      List.iter
        (fun v ->
          let self =
            max 0 (dur v - (try Hashtbl.find child_vt v.view_id with Not_found -> 0))
          in
          Buffer.add_string buf (String.concat ";" (stack v []));
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int self);
          Buffer.add_char buf '\n')
        vs)
    sessions;
  Buffer.contents buf

let export ?producer fmt ts =
  match fmt with
  | Jsonl -> jsonl ?producer (live ts)
  | Chrome -> chrome ?producer (live ts)
  | Tree -> tree (live ts)
  | Folded -> render_folded (List.concat_map views ts)
