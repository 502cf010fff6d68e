(* Allocation-free execution of compiled plans.

   This is the serve-path twin of [Engine.run] + [Exposure.of_result] +
   [Audit.audit]: it interprets a [Trust_core.Compile.t] instruction
   plan against per-domain scratch arrays (grown once, reused across
   runs) instead of rebuilding behaviours, bags and ledgers per
   session. Every semantic decision — heap tie-breaks, script firing,
   escrow/persona automata, parking and retry, custody provenance,
   sampling — replicates the interpreted modules line for line. Who
   runs what, and every transfer, is not replicated: the plan and
   [Harness.behaviors_for] are both built from [Protocol.role_table].
   The behaviours remain the oracle and the replication of their
   automata is property-tested in test_hotpath.

   The only per-run allocations are the exposure provenance lists
   (small, proportional to in-flight custody) and the returned summary;
   everything else lives in [scratch] under [Domain.DLS].

   The audit reads the plan's per-party tables ([C.judge]) against the
   delivered-action set: each own side is classified as
   [Outcomes.classify] would (Complete, Refunded, Windfall, Indemnified,
   Loss), then folded with the bundle rule, split pieces and undone
   extraneous sends as [Outcomes.judge] does; conservation compares the
   final holdings with the plan's initial totals. A party with an
   acceptability override is judged by [Outcomes] itself over the
   delivered actions, so its judge allocates that final state; every
   other judge reads the scratch alone. An untraced run needs only the
   preferred-outcome half.

   A run whose caller may still want its spans ([capturable]) also
   records the engine's event timeline (deliver, park, retry, drop,
   expire, deadline), the violation log and the peak escrow into
   scratch, where they stay until the domain's next run. A [capture]
   copies them out together with the compiled audit report; [emit]
   turns a capture into the ["simulate"] span with those events and the
   ["audit"] span with its ["exposure"] child — byte-identical to what
   [Harness.run_cast] + [Audit.audit] record on the interpreted path
   (property-tested in test_hotpath). The scheduler runs every session
   capturable while tracing is on and captures it only when the session
   is kept; no run writes a span itself. No [Engine.result] is built;
   [to_result] materializes one for tests. *)

open Exchange
module C = Trust_core.Compile
module Obs = Trust_obs.Obs

type config = {
  latency : int;
  deadline : int;
  max_events : int;
  drop : (int -> bool) option;  (** keyed by performed-action sequence number *)
}

let default_config = { latency = 1; deadline = 1_000; max_events = 100_000; drop = None }

type summary = {
  duration : int;  (** latest delivery tick, 0 when nothing was delivered *)
  events : int;
  deliveries : int;
  stalled : int;
  all_preferred : bool;
  preferred : bool array;  (** per judged party, audit order *)
  peak_risk : int array;  (** per principal slot *)
  risk_ticks : int array;
  violations : int;
}

(* custody provenance entry: contributor party index (-1 unattributed),
   remaining value, classification 0 Protected / 1 Exposed / 2 Deposit *)
type xentry = { x_contrib : int; mutable x_value : int; x_cls : int }

type scratch = {
  (* event heap: (time, push seq) min-heap over encoded payloads *)
  mutable h_time : int array;
  mutable h_seq : int array;
  mutable h_pay : int array;
  mutable h_len : int;
  mutable h_next : int;
  mutable pop_now : int;  (* time of the last popped event *)
  (* holdings, keyed by name index *)
  mutable balance : int array;
  mutable doc_count : int array;  (* n_names * n_docs, row-major *)
  (* delivered-action set and chronological log *)
  mutable seen : Bytes.t;
  mutable log_at : int array;
  mutable log_act : int array;
  mutable log_len : int;
  (* behaviour state *)
  mutable observed : Bytes.t;  (* n_roles * n_actions *)
  mutable pos : int array;  (* script cursor per role *)
  mutable emitted : int array;  (* partial-defector spend per role *)
  mutable flags : Bytes.t;  (* n_roles * flag_stride automaton bits *)
  mutable flag_stride : int;
  mutable defect_kind : Bytes.t;  (* 0 honest, 1 silent, 2 partial *)
  mutable defect_keep : int array;
  (* reaction buffer and parked actions *)
  mutable buf : int array;
  mutable buf_len : int;
  mutable pend_party : int array;
  mutable pend_act : int array;
  mutable pend_len : int;
  mutable rt_act : int array;
  mutable performed : int;
  mutable events : int;
  (* exposure fold state *)
  mutable dep_left : int array;  (* per action id: unmatched deposit occurrences *)
  mutable xdocs : (int * xentry) list array;  (* per name, FIFO oldest first *)
  mutable xmoney : xentry list array;
  mutable released : int array;  (* per principal slot *)
  mutable received : int array;
  mutable escrowed : int array;
  mutable deposits : int array;
  mutable goods : int array;
  mutable peak_risk : int array;
  mutable risk_ticks : int array;
  mutable prev_at : int array;
  mutable prev_risk : int array;
  mutable s_risk : int array;  (* last recorded sample *)
  mutable s_escrow : int array;
  mutable s_dep : int array;
  mutable s_goods : int array;
  mutable has_sample : Bytes.t;
  mutable flagged : Bytes.t;
  mutable honest : Bytes.t;
  mutable violations : int;
  (* recording runs only: ledger detail the exposure span reports *)
  mutable peak_escrow : int array;
  mutable risk_since : int array;  (* first tick of the open risk window, -1 none *)
  mutable vio : int array;  (* [vio_stride] ints per violation *)
  (* audit scratch: trusted-conduit net flows *)
  mutable g_docs : int array;
  mutable l_docs : int array;
  (* recording runs only: the engine event timeline, [ev_stride] ints
     per event — kind, tick, and two kind-specific operands *)
  mutable recording : bool;
  mutable ev : int array;
  mutable ev_len : int;
}

let make_scratch () =
  {
    h_time = Array.make 64 0;
    h_seq = Array.make 64 0;
    h_pay = Array.make 64 0;
    h_len = 0;
    h_next = 0;
    pop_now = 0;
    balance = [||];
    doc_count = [||];
    seen = Bytes.empty;
    log_at = Array.make 64 0;
    log_act = Array.make 64 0;
    log_len = 0;
    observed = Bytes.empty;
    pos = [||];
    emitted = [||];
    flags = Bytes.empty;
    flag_stride = 1;
    defect_kind = Bytes.empty;
    defect_keep = [||];
    buf = Array.make 32 0;
    buf_len = 0;
    pend_party = Array.make 16 0;
    pend_act = Array.make 16 0;
    pend_len = 0;
    rt_act = Array.make 16 0;
    performed = 0;
    events = 0;
    dep_left = [||];
    xdocs = [||];
    xmoney = [||];
    released = [||];
    received = [||];
    escrowed = [||];
    deposits = [||];
    goods = [||];
    peak_risk = [||];
    risk_ticks = [||];
    prev_at = [||];
    prev_risk = [||];
    s_risk = [||];
    s_escrow = [||];
    s_dep = [||];
    s_goods = [||];
    has_sample = Bytes.empty;
    flagged = Bytes.empty;
    honest = Bytes.empty;
    violations = 0;
    peak_escrow = [||];
    risk_since = [||];
    vio = [||];
    g_docs = [||];
    l_docs = [||];
    recording = false;
    ev = [||];
    ev_len = 0;
  }

let scratch_key = Domain.DLS.new_key make_scratch

let grow_int a n = if Array.length a < n then Array.make (max n (2 * Array.length a)) 0 else a

(* growth that keeps the contents, for buffers filled during a run *)
let extend_int a n =
  if Array.length a < n then begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
  else a

let grow_bytes b n =
  if Bytes.length b < n then Bytes.make (max n (2 * Bytes.length b)) '\000' else b

(* Size the scratch for [p] and reset it to the run's initial state. *)
let reset s (p : C.t) defectors =
  let n_names = p.C.n_names and n_docs = p.C.n_docs and n_actions = p.C.n_actions in
  let n_roles = Array.length p.C.roles and n_pr = p.C.n_principals in
  s.balance <- grow_int s.balance n_names;
  Array.blit p.C.endow_balance 0 s.balance 0 n_names;
  s.doc_count <- grow_int s.doc_count (n_names * n_docs);
  for n = 0 to n_names - 1 do
    Array.blit p.C.endow_docs.(n) 0 s.doc_count (n * n_docs) n_docs
  done;
  s.seen <- grow_bytes s.seen n_actions;
  Bytes.fill s.seen 0 n_actions '\000';
  s.log_len <- 0;
  s.observed <- grow_bytes s.observed (n_roles * n_actions);
  Bytes.fill s.observed 0 (n_roles * n_actions) '\000';
  s.pos <- grow_int s.pos n_roles;
  s.emitted <- grow_int s.emitted n_roles;
  Array.fill s.pos 0 n_roles 0;
  Array.fill s.emitted 0 n_roles 0;
  let stride = ref 1 in
  Array.iter
    (fun (_, role) ->
      match role with
      | C.Script { persona; _ } -> stride := max !stride (2 * Array.length persona)
      | C.Escrow e ->
        stride :=
          max !stride ((4 * Array.length e.C.es_deals) + (2 * Array.length e.C.es_deposits)))
    p.C.roles;
  s.flag_stride <- !stride;
  s.flags <- grow_bytes s.flags (n_roles * !stride);
  Bytes.fill s.flags 0 (n_roles * !stride) '\000';
  s.defect_kind <- grow_bytes s.defect_kind n_roles;
  Bytes.fill s.defect_kind 0 n_roles '\000';
  s.defect_keep <- grow_int s.defect_keep n_roles;
  s.buf_len <- 0;
  s.pend_len <- 0;
  s.performed <- 0;
  s.events <- 0;
  s.h_len <- 0;
  s.h_next <- 0;
  s.ev_len <- 0;
  s.dep_left <- grow_int s.dep_left n_actions;
  Array.blit p.C.deposit_expect 0 s.dep_left 0 n_actions;
  if Array.length s.xdocs < n_names then begin
    s.xdocs <- Array.make n_names [];
    s.xmoney <- Array.make n_names []
  end
  else begin
    Array.fill s.xdocs 0 n_names [];
    Array.fill s.xmoney 0 n_names []
  end;
  s.released <- grow_int s.released n_pr;
  s.received <- grow_int s.received n_pr;
  s.escrowed <- grow_int s.escrowed n_pr;
  s.deposits <- grow_int s.deposits n_pr;
  s.goods <- grow_int s.goods n_pr;
  s.peak_risk <- grow_int s.peak_risk n_pr;
  s.risk_ticks <- grow_int s.risk_ticks n_pr;
  s.prev_at <- grow_int s.prev_at n_pr;
  s.prev_risk <- grow_int s.prev_risk n_pr;
  s.s_risk <- grow_int s.s_risk n_pr;
  s.s_escrow <- grow_int s.s_escrow n_pr;
  s.s_dep <- grow_int s.s_dep n_pr;
  s.s_goods <- grow_int s.s_goods n_pr;
  Array.fill s.released 0 n_pr 0;
  Array.fill s.received 0 n_pr 0;
  Array.fill s.escrowed 0 n_pr 0;
  Array.fill s.deposits 0 n_pr 0;
  Array.fill s.goods 0 n_pr 0;
  Array.fill s.peak_risk 0 n_pr 0;
  if s.recording then begin
    s.peak_escrow <- grow_int s.peak_escrow n_pr;
    s.risk_since <- grow_int s.risk_since n_pr;
    Array.fill s.peak_escrow 0 n_pr 0;
    Array.fill s.risk_since 0 n_pr (-1)
  end;
  Array.fill s.risk_ticks 0 n_pr 0;
  Array.fill s.prev_at 0 n_pr 0;
  Array.fill s.prev_risk 0 n_pr 0;
  Array.fill s.s_risk 0 n_pr 0;
  Array.fill s.s_escrow 0 n_pr 0;
  Array.fill s.s_dep 0 n_pr 0;
  Array.fill s.s_goods 0 n_pr 0;
  s.has_sample <- grow_bytes s.has_sample n_pr;
  s.flagged <- grow_bytes s.flagged n_pr;
  s.honest <- grow_bytes s.honest n_pr;
  Bytes.fill s.has_sample 0 n_pr '\000';
  Bytes.fill s.flagged 0 n_pr '\000';
  Bytes.fill s.honest 0 n_pr '\001';
  s.violations <- 0;
  s.g_docs <- grow_int s.g_docs n_docs;
  s.l_docs <- grow_int s.l_docs n_docs;
  List.iter
    (fun (party, d) ->
      let i = C.party_index p party in
      if i >= 0 then begin
        let r = p.C.behavior_of.(i) in
        if r >= 0 && r < n_pr then begin
          (match d with
          | Harness.Silent -> Bytes.set s.defect_kind r '\001'
          | Harness.Partial keep ->
            Bytes.set s.defect_kind r '\002';
            s.defect_keep.(r) <- keep);
          Bytes.set s.honest r '\000'
        end
      end)
    defectors

(* -- event heap (Event_queue with parallel int arrays) -- *)

let heap_before s i j =
  s.h_time.(i) < s.h_time.(j)
  || (s.h_time.(i) = s.h_time.(j) && s.h_seq.(i) < s.h_seq.(j))

let heap_swap s i j =
  let t = s.h_time.(i) in
  s.h_time.(i) <- s.h_time.(j);
  s.h_time.(j) <- t;
  let q = s.h_seq.(i) in
  s.h_seq.(i) <- s.h_seq.(j);
  s.h_seq.(j) <- q;
  let p = s.h_pay.(i) in
  s.h_pay.(i) <- s.h_pay.(j);
  s.h_pay.(j) <- p

let heap_push s time pay =
  if s.h_len = Array.length s.h_time then begin
    s.h_time <- extend_int s.h_time (s.h_len + 1);
    s.h_seq <- extend_int s.h_seq (s.h_len + 1);
    s.h_pay <- extend_int s.h_pay (s.h_len + 1)
  end;
  let i = ref s.h_len in
  s.h_time.(!i) <- time;
  s.h_seq.(!i) <- s.h_next;
  s.h_pay.(!i) <- pay;
  s.h_next <- s.h_next + 1;
  s.h_len <- s.h_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_before s !i parent then begin
      heap_swap s !i parent;
      i := parent
    end
    else continue := false
  done

(* pops the min entry; returns the payload and stores its time in
   [pop_now]; -1 when empty *)
let heap_pop s =
  if s.h_len = 0 then -1
  else begin
    let pay = s.h_pay.(0) in
    s.pop_now <- s.h_time.(0);
    s.h_len <- s.h_len - 1;
    if s.h_len > 0 then begin
      s.h_time.(0) <- s.h_time.(s.h_len);
      s.h_seq.(0) <- s.h_seq.(s.h_len);
      s.h_pay.(0) <- s.h_pay.(s.h_len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
        let smallest = ref !i in
        if left < s.h_len && heap_before s left !smallest then smallest := left;
        if right < s.h_len && heap_before s right !smallest then smallest := right;
        if !smallest <> !i then begin
          heap_swap s !i !smallest;
          i := !smallest
        end
        else continue := false
      done
    end;
    pay
  end

let log_push s at act =
  if s.log_len = Array.length s.log_at then begin
    s.log_at <- extend_int s.log_at (s.log_len + 1);
    s.log_act <- extend_int s.log_act (s.log_len + 1)
  end;
  s.log_at.(s.log_len) <- at;
  s.log_act.(s.log_len) <- act;
  s.log_len <- s.log_len + 1

let buf_push s act =
  if s.buf_len = Array.length s.buf then s.buf <- extend_int s.buf (s.buf_len + 1);
  s.buf.(s.buf_len) <- act;
  s.buf_len <- s.buf_len + 1

(* trace event kinds and their operands (a, b) *)
let ev_stride = 4
let ev_deliver = 0 (* action, - *)
let ev_park = 1 (* action, performer *)
let ev_retry = 2 (* credited party, parked count *)
let ev_drop = 3 (* action, performed-action seq *)
let ev_expire = 4 (* deal, - *)
let ev_deadline = 5

let record_event s kind at a b =
  let i = s.ev_len * ev_stride in
  s.ev <- extend_int s.ev (i + ev_stride);
  s.ev.(i) <- kind;
  s.ev.(i + 1) <- at;
  s.ev.(i + 2) <- a;
  s.ev.(i + 3) <- b;
  s.ev_len <- s.ev_len + 1

(* inlined, so a run that records nothing pays one test per event *)
let[@inline] trace_event s kind at a b = if s.recording then record_event s kind at a b

let pend_push s party act =
  if s.pend_len = Array.length s.pend_party then begin
    s.pend_party <- extend_int s.pend_party (s.pend_len + 1);
    s.pend_act <- extend_int s.pend_act (s.pend_len + 1)
  end;
  s.pend_party.(s.pend_len) <- party;
  s.pend_act.(s.pend_len) <- act;
  s.pend_len <- s.pend_len + 1

(* -- behaviour automata over compiled roles --

   Each replicates its [Behavior] counterpart exactly: same matching
   order, same state bits, same emission order. Reactions are pushed
   into [buf]; [observe] performs them afterwards, like the engine
   performing a reaction list. *)

let obs_base (p : C.t) r = r * p.C.n_actions

(* Script.fire: advance past every consecutively-satisfied step, emit
   the first [limit] (partial defectors keep a budget; everything an
   advance skips past is lost, exactly like Behavior.partial). *)
let fire_steps s (p : C.t) r (steps : C.step array) limit =
  let base = obs_base p r in
  let len = Array.length steps in
  let i = ref s.pos.(r) in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !i < len do
    let st = steps.(!i) in
    if st.C.cond < 0 || Bytes.get s.observed (base + st.C.cond) <> '\000' then begin
      if !n < limit then begin
        buf_push s st.C.act;
        incr n
      end;
      incr i
    end
    else continue := false
  done;
  s.pos.(r) <- !i;
  !n

(* observation kinds: 0 Start, 1 Incoming act, 2 Expired deal, 3 Deadline *)

let script_react s (p : C.t) r (steps : C.step array) (persona : C.persona_deal array) kind
    payload =
  match Bytes.get s.defect_kind r with
  | '\001' -> () (* silent: no note, no fire *)
  | '\002' ->
    (* partial: observe, then fire under the remaining budget *)
    if kind = 1 then Bytes.set s.observed (obs_base p r + payload) '\001';
    if kind <= 1 then begin
      let budget = max 0 (s.defect_keep.(r) - s.emitted.(r)) in
      let n = fire_steps s p r steps budget in
      s.emitted.(r) <- s.emitted.(r) + n
    end
  | _ ->
    let fbase = r * s.flag_stride in
    let np = Array.length persona in
    (* persona duties: note the counterparty's deposit before reacting *)
    if kind = 1 then begin
      if np > 0 && p.C.act_kind.(payload) = 0 then
        for k = 0 to np - 1 do
          if persona.(k).C.pc_incoming = payload then
            Bytes.set s.flags (fbase + (2 * k)) '\001'
        done;
      Bytes.set s.observed (obs_base p r + payload) '\001'
    end;
    if kind <= 1 then begin
      let start = s.buf_len in
      let _ = fire_steps s p r steps max_int in
      (* note_outgoing: my own counterpart transfer completes the deal *)
      if np > 0 then
        for j = start to s.buf_len - 1 do
          let a = s.buf.(j) in
          for k = 0 to np - 1 do
            if persona.(k).C.pc_forward = a then Bytes.set s.flags (fbase + (2 * k) + 1) '\001'
          done
        done
    end
    else
      (* deadline/expiry: return deposits of deals never completed *)
      for k = 0 to np - 1 do
        if (kind = 3 || persona.(k).C.pc_deal = payload)
           && Bytes.get s.flags (fbase + (2 * k)) <> '\000'
           && Bytes.get s.flags (fbase + (2 * k) + 1) = '\000'
        then begin
          Bytes.set s.flags (fbase + (2 * k) + 1) '\001';
          buf_push s persona.(k).C.pc_return
        end
      done

(* escrow flag layout per role: deal slot i at 4i (got_left, got_right,
   completed, closed); deposit j at 4*|deals| + 2j (received, settled) *)

let escrow_complete s r (e : C.escrow) i =
  let fbase = r * s.flag_stride in
  Bytes.set s.flags (fbase + (4 * i) + 2) '\001';
  Array.iter (fun a -> buf_push s a) e.C.es_deals.(i).C.sl_forwards;
  let deal = e.C.es_deals.(i).C.sl_deal in
  let dbase = fbase + (4 * Array.length e.C.es_deals) in
  Array.iteri
    (fun j (dp : C.deposit_slot) ->
      if Bytes.get s.flags (dbase + (2 * j)) <> '\000'
         && Bytes.get s.flags (dbase + (2 * j) + 1) = '\000'
         && dp.C.dp_deal = deal
      then begin
        Bytes.set s.flags (dbase + (2 * j) + 1) '\001';
        buf_push s dp.C.dp_back
      end)
    e.C.es_deposits

let escrow_on_incoming s (p : C.t) r (e : C.escrow) payload =
  let fbase = r * s.flag_stride in
  let nd = Array.length e.C.es_deals in
  (* first open slot, Left side before Right (Escrow.match_deal_side) *)
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < nd do
    let sl = e.C.es_deals.(!i) in
    let b = fbase + (4 * !i) in
    let closed = Bytes.get s.flags (b + 3) <> '\000' in
    if (not closed) && Bytes.get s.flags b = '\000' && sl.C.sl_left_in = payload then
      found := 2 * !i
    else if (not closed) && Bytes.get s.flags (b + 1) = '\000' && sl.C.sl_right_in = payload
    then found := (2 * !i) + 1
    else incr i
  done;
  if !found >= 0 then begin
    let slot = !found / 2 in
    let b = fbase + (4 * slot) in
    Bytes.set s.flags (b + (!found land 1)) '\001';
    let ready k =
      Bytes.get s.flags (fbase + (4 * k)) <> '\000'
      && Bytes.get s.flags (fbase + (4 * k) + 1) <> '\000'
    in
    if e.C.es_atomic then begin
      let all = ref true in
      for k = 0 to nd - 1 do
        if not (ready k) then all := false
      done;
      if !all then
        for k = 0 to nd - 1 do
          if Bytes.get s.flags (fbase + (4 * k) + 2) = '\000' then escrow_complete s r e k
        done
    end
    else if ready slot && Bytes.get s.flags (b + 2) = '\000' then escrow_complete s r e slot
  end
  else begin
    (* a §6 deposit, or something to bounce back *)
    let dbase = fbase + (4 * nd) in
    let ndep = Array.length e.C.es_deposits in
    let j = ref 0 in
    let hit = ref false in
    while (not !hit) && !j < ndep do
      if Bytes.get s.flags (dbase + (2 * !j)) = '\000'
         && Bytes.get s.flags (dbase + (2 * !j) + 1) = '\000'
         && e.C.es_deposits.(!j).C.dp_in = payload
      then hit := true
      else incr j
    done;
    if !hit then Bytes.set s.flags (dbase + (2 * !j)) '\001'
    else buf_push s p.C.act_undo.(payload)
  end

let escrow_close s r (e : C.escrow) i =
  let fbase = r * s.flag_stride in
  let b = fbase + (4 * i) in
  let was_done = Bytes.get s.flags (b + 2) <> '\000' || Bytes.get s.flags (b + 3) <> '\000' in
  Bytes.set s.flags (b + 3) '\001';
  if not was_done then begin
    if Bytes.get s.flags b <> '\000' then buf_push s e.C.es_deals.(i).C.sl_left_back;
    if Bytes.get s.flags (b + 1) <> '\000' then buf_push s e.C.es_deals.(i).C.sl_right_back
  end

(* §6 settlement of one held deposit (marks it settled) *)
let escrow_settle_dep s r (e : C.escrow) j =
  let fbase = r * s.flag_stride in
  let nd = Array.length e.C.es_deals in
  let dbase = fbase + (4 * nd) in
  let dp = e.C.es_deposits.(j) in
  Bytes.set s.flags (dbase + (2 * j) + 1) '\001';
  let covered = ref (-1) in
  let k = ref 0 in
  while !covered < 0 && !k < nd do
    if e.C.es_deals.(!k).C.sl_deal = dp.C.dp_deal then covered := !k else incr k
  done;
  let owner_paid =
    !covered >= 0
    && Bytes.get s.flags (fbase + (4 * !covered) + if dp.C.dp_left then 0 else 1) <> '\000'
  in
  let piece_completed =
    !covered >= 0 && Bytes.get s.flags (fbase + (4 * !covered) + 2) <> '\000'
  in
  if owner_paid && not piece_completed then buf_push s dp.C.dp_forfeit
  else buf_push s dp.C.dp_back

let escrow_react s (p : C.t) r pi (e : C.escrow) kind payload =
  (* the notify script notes the observation first *)
  if kind = 1 then Bytes.set s.observed (obs_base p r + payload) '\001';
  let fbase = r * s.flag_stride in
  let nd = Array.length e.C.es_deals in
  let dbase = fbase + (4 * nd) in
  (match kind with
  | 1 ->
    if p.C.act_kind.(payload) = 0 && p.C.act_credit.(payload) = pi then
      escrow_on_incoming s p r e payload
  | 2 ->
    for i = 0 to nd - 1 do
      if e.C.es_deals.(i).C.sl_deal = payload then escrow_close s r e i
    done;
    Array.iteri
      (fun j (dp : C.deposit_slot) ->
        if Bytes.get s.flags (dbase + (2 * j) + 1) = '\000'
           && Bytes.get s.flags (dbase + (2 * j)) <> '\000'
           && dp.C.dp_deal = payload
        then escrow_settle_dep s r e j)
      e.C.es_deposits
  | 3 ->
    for i = 0 to nd - 1 do
      escrow_close s r e i
    done;
    Array.iteri
      (fun j (_ : C.deposit_slot) ->
        if Bytes.get s.flags (dbase + (2 * j) + 1) = '\000'
           && Bytes.get s.flags (dbase + (2 * j)) <> '\000'
        then escrow_settle_dep s r e j)
      e.C.es_deposits
  | _ -> ());
  if kind <= 1 then ignore (fire_steps s p r e.C.es_notifies max_int)

(* -- the engine loop (Engine.run over scratch) -- *)

let perform s (p : C.t) config now party a =
  if p.C.act_kind.(a) = 2 then begin
    let seq = s.performed in
    s.performed <- seq + 1;
    let lost = match config.drop with Some f -> f seq | None -> false in
    if lost then trace_event s ev_drop now a seq else heap_push s (now + config.latency) a
  end
  else begin
    let name = p.C.name_of.(p.C.act_debit.(a)) in
    let di = p.C.act_doc.(a) in
    let ok =
      if di >= 0 then begin
        let idx = (name * p.C.n_docs) + di in
        if s.doc_count.(idx) > 0 then begin
          s.doc_count.(idx) <- s.doc_count.(idx) - 1;
          true
        end
        else false
      end
      else begin
        let m = p.C.act_amount.(a) in
        if s.balance.(name) >= m then begin
          s.balance.(name) <- s.balance.(name) - m;
          true
        end
        else false
      end
    in
    if ok then begin
      let seq = s.performed in
      s.performed <- seq + 1;
      let lost = match config.drop with Some f -> f seq | None -> false in
      if lost then begin
        trace_event s ev_drop now a seq;
        (* lost in transit: the courier returns it to the sender *)
        if di >= 0 then begin
          let idx = (name * p.C.n_docs) + di in
          s.doc_count.(idx) <- s.doc_count.(idx) + 1
        end
        else s.balance.(name) <- s.balance.(name) + p.C.act_amount.(a)
      end
      else heap_push s (now + config.latency) a
    end
    else begin
      (* insufficient assets: park for retry *)
      trace_event s ev_park now a party;
      pend_push s party a
    end
  end

let retry_pending s (p : C.t) config now credit =
  let n = s.pend_len in
  if n > 0 then begin
    if Array.length s.rt_act < n then s.rt_act <- grow_int s.rt_act n;
    let mine = ref 0 in
    let keep = ref 0 in
    for k = 0 to n - 1 do
      if s.pend_party.(k) = credit then begin
        s.rt_act.(!mine) <- s.pend_act.(k);
        incr mine
      end
      else begin
        s.pend_party.(!keep) <- s.pend_party.(k);
        s.pend_act.(!keep) <- s.pend_act.(k);
        incr keep
      end
    done;
    s.pend_len <- !keep;
    if !mine > 0 then trace_event s ev_retry now credit !mine;
    for k = 0 to !mine - 1 do
      perform s p config now credit s.rt_act.(k)
    done
  end

let observe s (p : C.t) config now r kind payload =
  s.buf_len <- 0;
  let pi, role = p.C.roles.(r) in
  (match role with
  | C.Script { steps; persona } -> script_react s p r steps persona kind payload
  | C.Escrow e -> escrow_react s p r pi e kind payload);
  for j = 0 to s.buf_len - 1 do
    perform s p config now pi s.buf.(j)
  done

(* payload encoding on the heap: [0, n_actions) deliver that action;
   n_actions + k fires deal k's expiry; n_actions + n_deals the deadline *)
let execute s (p : C.t) config defectors =
  reset s p defectors;
  let n_roles = Array.length p.C.roles in
  for r = 0 to n_roles - 1 do
    observe s p config 0 r 0 (-1)
  done;
  Array.iter (fun (di, tick) -> heap_push s tick (p.C.n_actions + di)) p.C.expiries;
  heap_push s config.deadline (p.C.n_actions + p.C.n_deals);
  let continue = ref true in
  while !continue do
    if s.events >= config.max_events then continue := false
    else begin
      let pay = heap_pop s in
      if pay < 0 then continue := false
      else begin
        s.events <- s.events + 1;
        let now = s.pop_now in
        if pay >= p.C.n_actions then begin
          let kind, payload =
            if pay = p.C.n_actions + p.C.n_deals then (3, -1) else (2, pay - p.C.n_actions)
          in
          if kind = 3 then trace_event s ev_deadline now 0 0
          else trace_event s ev_expire now payload 0;
          for r = 0 to n_roles - 1 do
            observe s p config now r kind payload
          done
        end
        else begin
          let a = pay in
          trace_event s ev_deliver now a 0;
          Bytes.set s.seen a '\001';
          log_push s now a;
          if p.C.act_kind.(a) <> 2 then begin
            let credit = p.C.act_credit.(a) in
            let name = p.C.name_of.(credit) in
            let di = p.C.act_doc.(a) in
            if di >= 0 then begin
              let idx = (name * p.C.n_docs) + di in
              s.doc_count.(idx) <- s.doc_count.(idx) + 1
            end
            else s.balance.(name) <- s.balance.(name) + p.C.act_amount.(a);
            retry_pending s p config now credit
          end;
          if p.C.lockstep then
            for r = 0 to n_roles - 1 do
              observe s p config now r 1 a
            done
          else begin
            let r = p.C.behavior_of.(p.C.act_beneficiary.(a)) in
            if r >= 0 then observe s p config now r 1 a
          end
        end
      end
    end
  done

(* -- exposure fold (Exposure.of_result over the scratch log) -- *)

let pslot (p : C.t) i = p.C.pslot_of_name.(p.C.name_of.(i))

let contribute s ps cls v is_doc =
  (match cls with
  | 0 -> s.escrowed.(ps) <- s.escrowed.(ps) + v
  | 1 -> s.released.(ps) <- s.released.(ps) + v
  | _ -> s.deposits.(ps) <- s.deposits.(ps) + v);
  if is_doc then s.goods.(ps) <- s.goods.(ps) + 1

let uncontribute s ps cls v is_doc =
  (match cls with
  | 0 -> s.escrowed.(ps) <- s.escrowed.(ps) - v
  | 1 -> s.released.(ps) <- s.released.(ps) - v
  | _ -> s.deposits.(ps) <- s.deposits.(ps) - v);
  if is_doc then s.goods.(ps) <- s.goods.(ps) - 1

(* value returned to a contributor other than the one consuming it *)
let release s ps cls v =
  match cls with
  | 0 ->
    s.escrowed.(ps) <- s.escrowed.(ps) - v;
    s.released.(ps) <- s.released.(ps) + v
  | 2 ->
    s.deposits.(ps) <- s.deposits.(ps) - v;
    s.released.(ps) <- s.released.(ps) + v
  | _ -> ()

(* FIFO pick of a document: with a preferred contributor, their copy
   first, then any copy (Exposure.consume on documents). *)
let consume_doc s name di prefer =
  let rec pick want_contrib acc = function
    | [] -> None
    | (n, (e : xentry)) :: rest when n = di && ((not want_contrib) || e.x_contrib = prefer) ->
      Some (e, List.rev_append acc rest)
    | x :: rest -> pick want_contrib (x :: acc) rest
  in
  let found =
    match pick (prefer >= 0) [] s.xdocs.(name) with
    | Some _ as r -> r
    | None -> if prefer >= 0 then pick false [] s.xdocs.(name) else None
  in
  match found with
  | Some (e, rest) ->
    s.xdocs.(name) <- rest;
    Some e
  | None -> None

(* FIFO drain of money up to [m]; a preferred contributor's entries are
   moved to the front first, and that reordering persists. Returns the
   consumed (contributor, value, class) triples and the shortfall. *)
let consume_money s name m prefer =
  let queue =
    if prefer < 0 then s.xmoney.(name)
    else begin
      let mine, others = List.partition (fun (e : xentry) -> e.x_contrib = prefer) s.xmoney.(name) in
      mine @ others
    end
  in
  let rec go taken need queue =
    if need = 0 then (List.rev taken, 0, queue)
    else
      match queue with
      | [] -> (List.rev taken, need, [])
      | (e : xentry) :: rest ->
        if e.x_value <= need then
          go ((e.x_contrib, e.x_value, e.x_cls) :: taken) (need - e.x_value) rest
        else begin
          e.x_value <- e.x_value - need;
          (List.rev ((e.x_contrib, need, e.x_cls) :: taken), 0, e :: rest)
        end
  in
  let taken, shortfall, rest = go [] m queue in
  s.xmoney.(name) <- rest;
  (taken, shortfall)

(* forwarding held value re-classifies it (Protected <-> Exposed);
   deposits and unattributed value keep their class *)
let reclassify_move s (p : C.t) contrib v from_cls to_cls =
  if contrib >= 0 && from_cls <> to_cls && from_cls <> 2 then begin
    let ps = pslot p contrib in
    if ps < 0 then { x_contrib = contrib; x_value = v; x_cls = from_cls }
    else begin
      (match (from_cls, to_cls) with
      | 0, 1 ->
        s.escrowed.(ps) <- s.escrowed.(ps) - v;
        s.released.(ps) <- s.released.(ps) + v
      | 1, 0 ->
        s.released.(ps) <- s.released.(ps) - v;
        s.escrowed.(ps) <- s.escrowed.(ps) + v
      | _ -> ());
      { x_contrib = contrib; x_value = v; x_cls = to_cls }
    end
  end
  else { x_contrib = contrib; x_value = v; x_cls = from_cls }

let apply_delivery s (p : C.t) a =
  if p.C.act_kind.(a) <> 2 then begin
    let is_undo = p.C.act_kind.(a) = 1 in
    let src = p.C.act_debit.(a) and tgt = p.C.act_credit.(a) in
    let src_name = p.C.name_of.(src) and tgt_name = p.C.name_of.(tgt) in
    let di = p.C.act_doc.(a) in
    let is_doc = di >= 0 in
    let deposit_deal =
      if (not is_undo) && s.dep_left.(a) > 0 then begin
        s.dep_left.(a) <- s.dep_left.(a) - 1;
        true
      end
      else false
    in
    let prefer = if is_undo then tgt else -1 in
    let src_had =
      if is_doc then List.exists (fun (n, _) -> n = di) s.xdocs.(src_name)
      else s.xmoney.(src_name) <> []
    in
    let consumed, shortfall =
      if src_had then
        if is_doc then
          match consume_doc s src_name di prefer with
          | Some e -> ([ (e.x_contrib, e.x_value, e.x_cls) ], 0)
          | None -> ([], 0)
        else consume_money s src_name p.C.act_amount.(a) prefer
      else ([], if is_doc then 0 else p.C.act_amount.(a))
    in
    let own_value =
      if is_doc then
        if consumed = [] then if p.C.src_principal.(a) then p.C.price_src.(a) else 0 else 0
      else shortfall
    in
    let sends_own = (is_doc && consumed = []) || own_value > 0 in
    if (not is_undo) && (deposit_deal || p.C.tgt_trusted.(a)) then begin
      (* value stays in custody at the target *)
      let to_cls = if deposit_deal then 2 else 0 in
      let moved = List.map (fun (c, v, cls) -> reclassify_move s p c v cls to_cls) consumed in
      let own =
        if sends_own then begin
          let ps = pslot p src in
          if ps >= 0 then begin
            contribute s ps to_cls own_value is_doc;
            [ { x_contrib = src; x_value = own_value; x_cls = to_cls } ]
          end
          else [ { x_contrib = -1; x_value = own_value; x_cls = to_cls } ]
        end
        else []
      in
      let entries = moved @ own in
      if is_doc then
        s.xdocs.(tgt_name) <- s.xdocs.(tgt_name) @ List.map (fun e -> (di, e)) entries
      else s.xmoney.(tgt_name) <- s.xmoney.(tgt_name) @ entries
    end
    else begin
      (* terminal transfer: consumed value reaches its destination *)
      let self_returned = ref 0 in
      List.iter
        (fun (c, v, cls) ->
          if c >= 0 then
            if c = tgt then begin
              self_returned := !self_returned + v;
              let ps = pslot p c in
              if ps >= 0 then uncontribute s ps cls v is_doc
            end
            else begin
              let ps = pslot p c in
              if ps >= 0 then release s ps cls v
            end)
        consumed;
      let ps_src = pslot p src in
      if ps_src >= 0 && sends_own then
        if is_undo then begin
          let v = if is_doc then p.C.price_src.(a) else own_value in
          s.received.(ps_src) <- s.received.(ps_src) - v
        end
        else contribute s ps_src 1 own_value is_doc;
      let ps_tgt = pslot p tgt in
      if ps_tgt >= 0 then
        if is_undo && p.C.src_principal.(a) && consumed = [] then begin
          let v = if is_doc then p.C.price_tgt.(a) else own_value in
          uncontribute s ps_tgt 1 v is_doc
        end
        else begin
          let gross = if is_doc then p.C.price_tgt.(a) else p.C.act_amount.(a) in
          let v = gross - !self_returned in
          if v <> 0 then s.received.(ps_tgt) <- s.received.(ps_tgt) + v
        end
    end
  end

(* violation log, recording runs only: principal slot, tick, kind (0
   bound exceeded, 1 unsettled), amount (the at-risk value or the
   residual) *)
let vio_stride = 4

let count_violation s ps at kind amount =
  if s.recording then begin
    let i = s.violations * vio_stride in
    s.vio <- extend_int s.vio (i + vio_stride);
    s.vio.(i) <- ps;
    s.vio.(i + 1) <- at;
    s.vio.(i + 2) <- kind;
    s.vio.(i + 3) <- amount
  end;
  s.violations <- s.violations + 1

let sample_tick s (p : C.t) at =
  for ps = 0 to p.C.n_principals - 1 do
    let risk =
      let r = s.released.(ps) - s.received.(ps) in
      if r > 0 then r else 0
    in
    let changed =
      if Bytes.get s.has_sample ps = '\000' then
        risk > 0 || s.escrowed.(ps) > 0 || s.deposits.(ps) > 0 || s.goods.(ps) > 0
      else
        risk <> s.s_risk.(ps)
        || s.escrowed.(ps) <> s.s_escrow.(ps)
        || s.deposits.(ps) <> s.s_dep.(ps)
        || s.goods.(ps) <> s.s_goods.(ps)
    in
    if changed then begin
      Bytes.set s.has_sample ps '\001';
      s.s_risk.(ps) <- risk;
      s.s_escrow.(ps) <- s.escrowed.(ps);
      s.s_dep.(ps) <- s.deposits.(ps);
      s.s_goods.(ps) <- s.goods.(ps);
      if risk > s.peak_risk.(ps) then s.peak_risk.(ps) <- risk;
      if s.prev_risk.(ps) > 0 then s.risk_ticks.(ps) <- s.risk_ticks.(ps) + (at - s.prev_at.(ps));
      if s.recording then begin
        if s.escrowed.(ps) > s.peak_escrow.(ps) then s.peak_escrow.(ps) <- s.escrowed.(ps);
        if risk > 0 && s.risk_since.(ps) < 0 then s.risk_since.(ps) <- at;
        if risk = 0 then s.risk_since.(ps) <- -1
      end;
      if risk > p.C.bound.(ps)
         && Bytes.get s.honest ps <> '\000'
         && Bytes.get s.flagged ps = '\000'
      then begin
        Bytes.set s.flagged ps '\001';
        count_violation s ps at 0 risk
      end;
      s.prev_at.(ps) <- at;
      s.prev_risk.(ps) <- risk
    end
  done

let log_duration s =
  let duration = ref 0 in
  for k = 0 to s.log_len - 1 do
    if s.log_at.(k) > !duration then duration := s.log_at.(k)
  done;
  !duration

let summarize_exposure s (p : C.t) =
  let duration = log_duration s in
  let k = ref 0 in
  while !k < s.log_len do
    let tick = s.log_at.(!k) in
    while !k < s.log_len && s.log_at.(!k) = tick do
      apply_delivery s p s.log_act.(!k);
      incr k
    done;
    sample_tick s p tick
  done;
  for ps = 0 to p.C.n_principals - 1 do
    if s.prev_risk.(ps) > 0 then begin
      s.risk_ticks.(ps) <- s.risk_ticks.(ps) + (duration - s.prev_at.(ps) + 1);
      if Bytes.get s.honest ps <> '\000' then begin
        (* reported at the start of the open risk window, when known *)
        let since = if s.recording then s.risk_since.(ps) else -1 in
        count_violation s ps (if since >= 0 then since else duration) 1 s.prev_risk.(ps)
      end
    end
  done;
  duration

(* -- audit (Audit.judge over the delivered-action set) -- *)

let seen s a = Bytes.get s.seen a <> '\000'

(* the delivered-action set as an [Engine.result] state *)
let delivered_state s (p : C.t) =
  let state = ref State.empty in
  for a = 0 to p.C.n_actions - 1 do
    if seen s a then state := State.record p.C.actions.(a) !state
  done;
  !state

(* a principal reached Complete on every own side; a trusted role is a
   clean conduit (Outcomes.conduit_clean), which is all three of its
   verdicts; an overridden party reached its preferred description *)
let judge_preferred s (p : C.t) = function
  | C.Judge_principal { checks; _ } ->
    Array.for_all
      (fun (cc : C.commit_check) -> seen s cc.C.cc_send && Array.exists (seen s) cc.C.cc_recv)
      checks
  | C.Judge_trusted pi ->
    if Array.length s.g_docs < p.C.n_docs then begin
      s.g_docs <- Array.make (max 16 p.C.n_docs) 0;
      s.l_docs <- Array.make (max 16 p.C.n_docs) 0
    end;
    Array.fill s.g_docs 0 p.C.n_docs 0;
    Array.fill s.l_docs 0 p.C.n_docs 0;
    let gained = ref 0 and lost = ref 0 in
    for a = 0 to p.C.n_actions - 1 do
      if seen s a && p.C.act_kind.(a) <> 2 then begin
        let di = p.C.act_doc.(a) in
        if p.C.act_credit.(a) = pi then
          if di >= 0 then s.g_docs.(di) <- s.g_docs.(di) + 1
          else gained := !gained + p.C.act_amount.(a);
        if p.C.act_debit.(a) = pi then
          if di >= 0 then s.l_docs.(di) <- s.l_docs.(di) + 1
          else lost := !lost + p.C.act_amount.(a)
      end
    done;
    let ok = ref (!gained = !lost) in
    for d = 0 to p.C.n_docs - 1 do
      if s.g_docs.(d) <> s.l_docs.(d) then ok := false
    done;
    !ok
  | C.Judge_override pi ->
    Outcomes.preferred_reached p.C.spec ~party:p.C.parties.(pi) (delivered_state s p)

(* Outcomes.classify of one own side *)
let classify s (p : C.t) (cc : C.commit_check) =
  let received = Array.exists (seen s) cc.C.cc_recv in
  if seen s cc.C.cc_send then
    if received then Outcomes.Complete
    else if not (seen s p.C.act_undo.(cc.C.cc_send)) then Outcomes.Loss
    else if cc.C.cc_split && Array.exists (seen s) cc.C.cc_payouts then Outcomes.Indemnified
    else Outcomes.Refunded
  else if received then Outcomes.Windfall
  else Outcomes.Nothing

(* Outcomes.judge of a principal: (no_loss, acceptable). Unsplit sides
   form the all-or-nothing bundle; split sides are judged alone, where a
   bare refund breaks the indemnity's promise. *)
let judge_principal s (p : C.t) checks extraneous =
  let no_loss = ref true and delivered = ref true and inert = ref true and split_ok = ref true in
  Array.iter
    (fun (cc : C.commit_check) ->
      let o = classify s p cc in
      if o = Outcomes.Loss then no_loss := false;
      if cc.C.cc_split then begin
        if o = Outcomes.Refunded || o = Outcomes.Loss then split_ok := false
      end
      else begin
        (match o with Outcomes.Complete | Outcomes.Windfall -> () | _ -> delivered := false);
        match o with
        | Outcomes.Nothing | Outcomes.Refunded | Outcomes.Windfall -> ()
        | _ -> inert := false
      end)
    checks;
  let whole =
    !no_loss
    && not (Array.exists (fun a -> seen s a && not (seen s p.C.act_undo.(a))) extraneous)
  in
  (whole, whole && (!delivered || !inert) && !split_ok)

(* The [Audit.report] of the run in scratch, from the plan's audit
   tables, the [preferred] verdicts already judged and the final
   holdings. *)
let audit_report s (p : C.t) defectors (preferred : bool array) =
  let verdict i j =
    let pi, no_loss, acceptable =
      match j with
      | C.Judge_principal { party; checks; extraneous } ->
        let no_loss, acceptable = judge_principal s p checks extraneous in
        (party, no_loss, acceptable)
      | C.Judge_trusted pi -> (pi, preferred.(i), preferred.(i))
      | C.Judge_override pi ->
        let no_loss, acceptable =
          Outcomes.assess p.C.spec ~party:p.C.parties.(pi) (delivered_state s p)
        in
        (pi, no_loss, acceptable)
    in
    let party = p.C.parties.(pi) in
    {
      Audit.party;
      honest = not (List.exists (fun (d, _) -> Party.equal d party) defectors);
      acceptable;
      no_loss;
      preferred = preferred.(i);
    }
  in
  let money = ref 0 and docs = ref 0 in
  Array.iter
    (fun (pi, _) ->
      let name = p.C.name_of.(pi) in
      money := !money + s.balance.(name);
      for d = 0 to p.C.n_docs - 1 do
        docs := !docs + s.doc_count.((name * p.C.n_docs) + d)
      done)
    p.C.roles;
  Audit.of_verdicts
    ~conserved:(!money = p.C.initial_money && !docs = p.C.initial_docs)
    (Array.to_list (Array.mapi verdict p.C.judged))

(* -- the materialized result (tests) -- *)

let materialize s (p : C.t) =
  let log = ref [] in
  for k = s.log_len - 1 downto 0 do
    log := { Engine.at = s.log_at.(k); action = p.C.actions.(s.log_act.(k)) } :: !log
  done;
  let holdings =
    Array.to_list
      (Array.map
         (fun (pi, _) ->
           let name = p.C.name_of.(pi) in
           let bag = ref (Asset.Bag.add (Asset.money s.balance.(name)) Asset.Bag.empty) in
           for d = 0 to p.C.n_docs - 1 do
             for _ = 1 to s.doc_count.((name * p.C.n_docs) + d) do
               bag := Asset.Bag.add (Asset.document p.C.docs.(d)) !bag
             done
           done;
           (p.C.parties.(pi), !bag))
         p.C.roles)
  in
  let stalled = ref [] in
  for k = s.pend_len - 1 downto 0 do
    stalled := (p.C.parties.(s.pend_party.(k)), p.C.actions.(s.pend_act.(k))) :: !stalled
  done;
  { Engine.state = delivered_state s p; log = !log; holdings; stalled = !stalled; events = s.events }

(* The summary of the run in scratch: the exposure fold and the
   compiled audit verdicts. *)
let summarize s (p : C.t) =
  let duration = summarize_exposure s p in
  let preferred = Array.map (judge_preferred s p) p.C.judged in
  {
    duration;
    events = s.events;
    deliveries = s.log_len;
    stalled = s.pend_len;
    all_preferred = Array.for_all Fun.id preferred;
    preferred;
    peak_risk = Array.sub s.peak_risk 0 p.C.n_principals;
    risk_ticks = Array.sub s.risk_ticks 0 p.C.n_principals;
    violations = s.violations;
  }

let total_peak_risk (t : summary) = Array.fold_left ( + ) 0 t.peak_risk
let total_risk_ticks (t : summary) = Array.fold_left ( + ) 0 t.risk_ticks

(* -- captures: a finished run, copied out of scratch for emission -- *)

type capture = {
  c_plan : C.t;
  c_timeline : int array;  (* [ev_stride] ints per event *)
  c_events : int;
  c_deliveries : int;
  c_stalled : int;
  c_peak_at_risk : int;
  c_peak_escrow : int;
  c_peaks : (Party.t * int) list;  (* per principal slot *)
  c_risk_ticks : int;
  c_report : Audit.report;
  c_violations : Exposure.violation list;
}

(* The run in scratch, judged with its [preferred] verdicts; every
   other figure is read off the scratch the run left. *)
let capture_run s (p : C.t) defectors preferred =
  let n_pr = p.C.n_principals in
  let principal ps = p.C.parties.(fst p.C.roles.(ps)) in
  let sum a = Array.fold_left ( + ) 0 (Array.sub a 0 n_pr) in
  {
    c_plan = p;
    c_timeline = Array.sub s.ev 0 (s.ev_len * ev_stride);
    c_events = s.events;
    c_deliveries = s.log_len;
    c_stalled = s.pend_len;
    c_peak_at_risk = sum s.peak_risk;
    c_peak_escrow = sum s.peak_escrow;
    c_peaks = List.init n_pr (fun ps -> (principal ps, s.peak_risk.(ps)));
    c_risk_ticks = sum s.risk_ticks;
    c_report = audit_report s p defectors preferred;
    c_violations =
      List.init s.violations (fun k ->
          let i = k * vio_stride in
          let ps = s.vio.(i) and amount = s.vio.(i + 3) in
          let v_kind =
            if s.vio.(i + 2) = 0 then
              Exposure.Bound_exceeded { at_risk = amount; bound = p.C.bound.(ps) }
            else Exposure.Unsettled { residual = amount }
          in
          { Exposure.v_party = principal ps; v_at = s.vio.(i + 1); v_kind });
  }

(* The recorded timeline onto the ["simulate"] span, exactly as
   [Engine.run] emits it live. *)
let emit_events c obs h =
  let p = c.c_plan and ev = c.c_timeline in
  let action_attrs ~at a =
    let d = p.C.act_deal.(a) in
    Engine.deal_action_attrs
      ~deal:(if d < 0 then None else Some p.C.deal_ids.(d))
      ~at p.C.actions.(a)
  in
  let party i = Obs.Str (Party.name p.C.parties.(i)) in
  for k = 0 to (Array.length ev / ev_stride) - 1 do
    let i = k * ev_stride in
    let kind = ev.(i) and at = ev.(i + 1) and a = ev.(i + 2) and b = ev.(i + 3) in
    if kind = ev_deliver then Obs.event obs h "deliver" ~attrs:(action_attrs ~at a)
    else if kind = ev_park then
      Obs.event obs h "park" ~attrs:(("party", party b) :: action_attrs ~at a)
    else if kind = ev_retry then
      Obs.event obs h "retry"
        ~attrs:[ ("party", party a); ("parked", Obs.Int b); ("at", Obs.Int at) ]
    else if kind = ev_drop then
      Obs.event obs h "drop" ~attrs:(("seq", Obs.Int b) :: action_attrs ~at a)
    else if kind = ev_expire then
      Obs.event obs h "expire" ~attrs:[ ("deal", Obs.Str p.C.deal_ids.(a)); ("at", Obs.Int at) ]
    else Obs.event obs h "deadline" ~attrs:[ ("at", Obs.Int at) ]
  done

let emit obs ?parent c =
  Obs.with_span obs ?parent ~phase:"simulate" "simulate" (fun h ->
      emit_events c obs h;
      Harness.simulate_attrs obs h ~events:c.c_events ~deliveries:c.c_deliveries
        ~stalled:c.c_stalled ~peak_at_risk:c.c_peak_at_risk ~peak_escrow:c.c_peak_escrow);
  Audit.record obs ?parent c.c_report (fun span ->
      Exposure.record_summary obs ~parent:span ~peaks:c.c_peaks ~peak_escrow:c.c_peak_escrow
        ~risk_ticks:c.c_risk_ticks c.c_violations)

(* -- entry points -- *)

let exec ?(config = default_config) ?(defectors = []) ?(capturable = false) (p : C.t) =
  let s = Domain.DLS.get scratch_key in
  s.recording <- capturable;
  execute s p config defectors;
  summarize s p

let capture ?(defectors = []) (p : C.t) =
  let s = Domain.DLS.get scratch_key in
  if not s.recording then invalid_arg "Hotpath.capture: the last run recorded no timeline";
  capture_run s p defectors (Array.map (judge_preferred s p) p.C.judged)

let to_result ?(config = default_config) ?(defectors = []) (p : C.t) =
  let s = Domain.DLS.get scratch_key in
  s.recording <- false;
  execute s p config defectors;
  materialize s p

let report ?(config = default_config) ?(defectors = []) (p : C.t) =
  let s = Domain.DLS.get scratch_key in
  s.recording <- false;
  execute s p config defectors;
  audit_report s p defectors (Array.map (judge_preferred s p) p.C.judged)
