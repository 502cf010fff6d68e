(* Compiled protocol plans.

   A plan flattens everything the engine hot path needs into integer-
   indexed immutable arrays, built once at synthesis time and shared by
   every run (and every domain) that executes the same cached protocol:

   - every action any behaviour can ever emit, interned into one table
     (closed under Undo-of-every-Do, so bounce returns and deadline
     refunds are ids too), with per-action flow, beneficiary and
     asset tables;
   - each party's script as a flat (condition id, action id) array,
     escrow automata as per-deal slot tables, persona duties as
     per-deal id triples;
   - the listener table: per action, the roles whose state observing
     it can change, so a lockstep delivery wakes only those; each
     (role, action) entry is a subscription slot the waiting steps
     carry, and per-role flag offsets and per-(name, document)
     holdings size the rest of the runtime's scratch;
   - initial endowments, per-deal expiry times, and the §5 audit and
     exposure lookup tables (send/receive candidates per commitment,
     per-asset prices, single-transfer bounds).

   Which party runs which script, persona duties or escrow is read off
   [Protocol.role_table], the table [Trust_sim.Harness.behaviors_for]
   builds the interpreted behaviours from, and every transfer comes
   from its one constructor in [Spec] or [Indemnity]. The runtime that
   interprets these plans without re-elaboration lives in
   [Trust_sim.Hotpath]; the interpreted behaviours remain the oracle it
   is property-tested against. *)

open Exchange

type step = {
  cond : int;  (** action id to wait for; [-1] fires immediately *)
  slot : int;  (** subscription slot of (this role, [cond]); [-1] with [cond] *)
  act : int;
}

type deal_slot = {
  sl_deal : int;  (** index into the spec's deal list *)
  sl_left_in : int;  (** [Do] of the Left side transfer *)
  sl_right_in : int;
  sl_left_back : int;  (** [Undo] counterparts for deadline returns *)
  sl_right_back : int;
  sl_forwards : int array;  (** completion forwards, documents before money *)
}

type deposit_slot = {
  dp_in : int;  (** [Do] of the §6 deposit transfer *)
  dp_back : int;  (** its [Undo]: the refund *)
  dp_forfeit : int;  (** [Do] forfeiting the amount to the protected owner *)
  dp_deal : int;  (** deal index of the covered piece *)
  dp_left : bool;  (** covered piece is the deal's Left side *)
}

type escrow = {
  es_atomic : bool;
  es_deals : deal_slot array;  (** mediated deals, spec order *)
  es_deposits : deposit_slot array;  (** held deposits, offer order *)
  es_notifies : step array;  (** notification steps of the agent's script *)
}

type persona_deal = {
  pc_deal : int;
  pc_incoming : int;  (** [Do] of the counterparty's transfer into me *)
  pc_return : int;  (** its [Undo] *)
  pc_forward : int;  (** [Do] of my own counterpart transfer *)
}

type role =
  | Script of { steps : step array; persona : persona_deal array }
  | Escrow of escrow

type commit_check = {
  cc_send : int;  (** the principal's visible send for this commitment *)
  cc_recv : int array;  (** [Spec.deliveries]: any one of them completes it *)
  cc_split : bool;  (** split off the principal's conjunction (§6) *)
  cc_payouts : int array;  (** split only: money it accepts as its indemnity payout *)
}

type judge =
  | Judge_principal of { party : int; checks : commit_check array; extraneous : int array }
  | Judge_trusted of { party : int; flows : int array }
  | Judge_override of int

type t = {
  spec : Spec.t;  (** the split spec the protocol was synthesized from *)
  plan : Indemnity.plan option;  (** the indemnity plan that split it *)
  lockstep : bool;  (** lockstep runs broadcast deliveries *)
  n_deals : int;
  (* parties *)
  parties : Party.t array;  (** [Spec.parties] order, extended by action endpoints *)
  name_of : int array;  (** party index -> name index (holdings/ledger key) *)
  n_names : int;
  pslot_of_name : int array;  (** name index -> principal slot, [-1] none *)
  n_principals : int;
  (* actions *)
  actions : Action.t array;
  n_actions : int;
  act_kind : int array;  (** 0 Do, 1 Undo, 2 Notify *)
  act_debit : int array;  (** debited party index, [-1] for notifications *)
  act_credit : int array;
  act_doc : int array;  (** document id, [-1] for money/notify *)
  act_amount : int array;  (** money amount, [0] otherwise *)
  act_beneficiary : int array;
  act_undo : int array;  (** id of the [Undo] counterpart of a [Do], [-1] *)
  act_deal : int array;  (** owning deal index for trace attribution, [-1] none *)
  act_label : string array Atomic.t;  (** [Action.to_string] per action, on first use *)
  deal_ids : string array;  (** spec order *)
  docs : string array;
  n_docs : int;
  (* behaviours, [Protocol.role_table] order *)
  roles : (int * role) array;  (** (party index, role) *)
  behavior_of : int array;  (** party index -> roles index, [-1] *)
  lst_off : int array;  (** per action: its listeners are [lst_role.(lst_off.(a) ..)] *)
  lst_role : int array;  (** listener roles, role order per action; index = slot *)
  flag_off : int array;  (** per role: first automaton flag; [n_roles] ends *)
  (* engine scaffolding *)
  endow_balance : int array;  (** per name index *)
  hold_off : int array;  (** per name index: its document holdings, doc order *)
  hold_doc : int array;  (** per holding: document id *)
  endow_holds : int array;  (** per holding: initial count *)
  act_src_hold : int array;  (** per document action: debited holding, else [-1] *)
  act_dst_hold : int array;  (** per document action: credited holding, else [-1] *)
  expiries : (int * int) array;  (** (deal index, expiry tick), spec order *)
  (* audit *)
  judged : judge array;
  initial_money : int;  (** behaviour parties' initial endowments, summed *)
  initial_docs : int;
  (* exposure *)
  deposit_expect : int array;  (** per action id: §6 deposit occurrences *)
  price_src : int array;  (** value of the asset to the releasing party *)
  price_tgt : int array;
  src_principal : bool array;
  tgt_trusted : bool array;
  bound : int array;  (** per principal slot: §5 single-transfer bound *)
}

(* Trace attribution of an action: the first deal one of whose
   commitments sends or expects the transferred asset; [-1] for
   notifications and unattributable transfers. A deal's sides send and
   expect the same two assets, so one table maps each asset to the
   first deal that moves it. *)
let owning_deal spec =
  let first = Hashtbl.create 16 in
  List.iteri
    (fun i d ->
      List.iter
        (fun asset -> if not (Hashtbl.mem first asset) then Hashtbl.replace first asset i)
        [ d.Spec.left_sends; d.Spec.right_sends ])
    spec.Spec.deals;
  function
  | Action.Notify _ -> -1
  | Action.Do tr | Action.Undo tr ->
    Option.value ~default:(-1) (Hashtbl.find_opt first tr.Action.asset)

(* Rendering every label at compile time would make each cache miss
   pay for strings only a traced emission reads, so the table is filled
   on first use. Domains racing to fill it render the same strings, and
   either array may win. *)
let label t a =
  let labels =
    match Atomic.get t.act_label with
    | [||] ->
      let labels = Array.map Action.to_string t.actions in
      Atomic.set t.act_label labels;
      labels
    | labels -> labels
  in
  labels.(a)

let party_index t party =
  let n = Array.length t.parties in
  let rec go i =
    if i >= n then -1 else if Party.equal t.parties.(i) party then i else go (i + 1)
  in
  go 0

(* -- the action table under construction --

   An action is interned by an all-int key: its kind (0 [Do], 1 [Undo],
   2 [Notify]), its two endpoints' party ids (source and target; agent
   and informed), its document's provisional id ([-1] for money and
   notifications) and its money amount. The index is open addressing
   over the growing key columns, so a lookup hashes no party, string or
   asset and allocates nothing. *)
type acts = {
  mutable n : int;
  mutable kind : int array;
  mutable src : int array;
  mutable tgt : int array;
  mutable doc : int array;
  mutable amt : int array;
  mutable value : Action.t array;  (** the first value interned under each key *)
  mutable index : int array;  (** power-of-two slots: an action id, [-1] free *)
}

let no_party = Party.trusted ""
let no_action = Action.Notify { agent = no_party; informed = no_party }

let grow a fill = Array.append a (Array.make (max 8 (Array.length a)) fill)

let slot_of_key acts k s g d m =
  let h = (((((((k * 0x9E3779B1) + s) * 0x85EBCA77) + g) * 0xC2B2AE3D) + d) * 0x27D4EB2F) + m in
  (h lxor (h lsr 29)) land (Array.length acts.index - 1)

let rec reindex acts =
  acts.index <- Array.make (2 * Array.length acts.index) (-1);
  for id = 0 to acts.n - 1 do
    place acts id (slot_of_key acts acts.kind.(id) acts.src.(id) acts.tgt.(id) acts.doc.(id) acts.amt.(id))
  done

and place acts id i =
  if acts.index.(i) < 0 then acts.index.(i) <- id
  else place acts id ((i + 1) land (Array.length acts.index - 1))

(* The id of the key, appended (with [value] unset) when new. Probing
   is a top-level loop, so a lookup allocates no closure. *)
let rec probe acts k s g d m i =
  let id = acts.index.(i) in
  if id < 0 then begin
    let id = acts.n in
    if id = Array.length acts.kind then begin
      acts.kind <- grow acts.kind 0;
      acts.src <- grow acts.src 0;
      acts.tgt <- grow acts.tgt 0;
      acts.doc <- grow acts.doc 0;
      acts.amt <- grow acts.amt 0;
      acts.value <- grow acts.value no_action
    end;
    acts.kind.(id) <- k;
    acts.src.(id) <- s;
    acts.tgt.(id) <- g;
    acts.doc.(id) <- d;
    acts.amt.(id) <- m;
    acts.index.(i) <- id;
    acts.n <- id + 1;
    if 2 * acts.n > Array.length acts.index then reindex acts;
    id
  end
  else if
    acts.kind.(id) = k && acts.src.(id) = s && acts.tgt.(id) = g && acts.doc.(id) = d
    && acts.amt.(id) = m
  then id
  else probe acts k s g d m ((i + 1) land (Array.length acts.index - 1))

let intern_key acts k s g d m = probe acts k s g d m (slot_of_key acts k s g d m)

let money_of = function Asset.Money m -> m | Asset.Document _ -> 0

(* Sort [a.(lo) .. a.(hi - 1)] in place: insertion sort, since a
   name's documents are usually one or two. *)
let sort_range (a : int array) lo hi =
  if hi - lo > 16 then begin
    let sub = Array.sub a lo (hi - lo) in
    Array.sort Int.compare sub;
    Array.blit sub 0 a lo (hi - lo)
  end
  else
    for k = lo + 1 to hi - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* The actions of [ids] whose amount covers [amount], in order.
   [amounts] is theirs, sorted: it counts them, so the fill stops at
   the last one (on a rescued fan they are a prefix, and the whole
   table costs what it holds). *)
let covering ids (amount_of : int array) (amounts : int array) amount =
  let rec first_covering lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if amounts.(mid) >= amount then first_covering lo mid else first_covering (mid + 1) hi
  in
  let n = Array.length amounts - first_covering 0 (Array.length amounts) in
  let out = Array.make n 0 and k = ref 0 and i = ref 0 in
  while !k < n do
    let a = ids.(!i) in
    if amount_of.(a) >= amount then begin
      out.(!k) <- a;
      incr k
    end;
    incr i
  done;
  out

(* The index of [x] in the sorted [a.(lo) .. a.(hi - 1)], which holds it. *)
let rec search (a : int array) (x : int) lo hi =
  let mid = (lo + hi) lsr 1 in
  if a.(mid) = x then mid else if a.(mid) < x then search a x (mid + 1) hi else search a x lo mid

(* a party name's id, and the parties with that name (usually one) *)
type name_entry = { nid : int; mutable members : (Party.t * int) list }

(* Hash tables on strings and ints that skip the polymorphic compare
   (and, for ints, the C hash). *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 32)) land max_int
end)

(* The compiler interns each party, document and action to an int once
   and reads every per-party question (own sides, deliveries, split
   marks, indemnity amounts, endowments) off tables built in one pass
   over the deals, so a plan costs time linear in the spec. Ids are
   handed out in the order the tables have always been filled: parties
   in [Spec.parties] order; actions in role order (a script's steps,
   then its persona duties; an escrow's deal slots, deposits, then
   notifications), then each judged principal's deliveries and sends,
   the §6 deposits and every [Do]'s [Undo]; documents by first use in
   the action table, then by the deals' endowments. *)
let compile ~lockstep ~shared ?plan ~price spec protocol =
  let deals = Array.of_list spec.Spec.deals in
  let n_deals = Array.length deals in
  (* -- parties, each with its name id -- *)
  let names = Stbl.create ((2 * n_deals) + 1) in
  let party_arr = ref (Array.make ((3 * n_deals) + 1) no_party) in
  let name_arr = ref (Array.make ((3 * n_deals) + 1) 0) in
  let n_parties = ref 0 and n_names = ref 0 in
  (* the id of [p], [-1] when unknown *)
  let find p =
    match Stbl.find_opt names (Party.name p) with
    | Some entry -> (
      match List.find_opt (fun (q, _) -> Party.equal q p) entry.members with
      | Some (_, i) -> i
      | None -> -1)
    | None -> -1
  in
  let party_id p =
    let name = Party.name p in
    let entry =
      match Stbl.find names name with
      | entry -> entry
      | exception Not_found ->
        let entry = { nid = !n_names; members = [] } in
        Stbl.add names name entry;
        incr n_names;
        entry
    in
    let rec member = function
      | (q, i) :: rest -> if Party.equal q p then i else member rest
      | [] ->
        let i = !n_parties in
        if i = Array.length !party_arr then begin
          party_arr := grow !party_arr no_party;
          name_arr := grow !name_arr 0
        end;
        !party_arr.(i) <- p;
        !name_arr.(i) <- entry.nid;
        entry.members <- (p, i) :: entry.members;
        incr n_parties;
        i
    in
    member entry.members
  in
  (* principals first, then trusted roles: [Spec.parties] order *)
  let left = Array.make n_deals 0 and right = Array.make n_deals 0 in
  Array.iteri
    (fun i d ->
      left.(i) <- party_id d.Spec.left;
      right.(i) <- party_id d.Spec.right)
    deals;
  let n_principals = !n_parties in
  let via = Array.map (fun d -> party_id d.Spec.via) deals in
  let n_spec_parties = !n_parties in
  (* the party that performs each deal's trusted role *)
  let persona = Array.make n_spec_parties (-1) in
  Party.Map.iter
    (fun trusted principal ->
      let t = find trusted in
      if t >= 0 then persona.(t) <- party_id principal)
    spec.Spec.personas;
  let agent = Array.map (fun v -> if persona.(v) >= 0 then persona.(v) else v) via in
  (* -- documents: provisional ids by first sight, deals first, with the
     first deal sending each; money amounts likewise -- *)
  let dtbl = Stbl.create ((2 * n_deals) + 1) in
  let prov_name = ref (Array.make ((2 * n_deals) + 1) "") in
  let n_prov = ref 0 in
  let prov name =
    match Stbl.find_opt dtbl name with
    | Some c -> c
    | None ->
      let c = !n_prov in
      if c = Array.length !prov_name then prov_name := grow !prov_name "";
      !prov_name.(c) <- name;
      Stbl.add dtbl name c;
      incr n_prov;
      c
  in
  let doc_of = function Asset.Document name -> prov name | Asset.Money _ -> -1 in
  let doc_deal = Array.make ((2 * n_deals) + 1) (-1) in
  let money_deal = Itbl.create 8 in
  let code i = function
    | Asset.Document name ->
      let c = prov name in
      if doc_deal.(c) < 0 then doc_deal.(c) <- i;
      c
    | Asset.Money m ->
      if not (Itbl.mem money_deal m) then Itbl.add money_deal m i;
      -1
  in
  let lcode = Array.make n_deals (-1) and rcode = Array.make n_deals (-1) in
  Array.iteri
    (fun i d ->
      lcode.(i) <- code i d.Spec.left_sends;
      rcode.(i) <- code i d.Spec.right_sends)
    deals;
  let n_deal_docs = !n_prov in
  (* -- action interning -- *)
  let acts =
    let cap = (14 * n_deals) + 16 in
    let slots = ref 16 in
    while !slots < 2 * cap do
      slots := 2 * !slots
    done;
    {
      n = 0;
      kind = Array.make cap 0;
      src = Array.make cap 0;
      tgt = Array.make cap 0;
      doc = Array.make cap 0;
      amt = Array.make cap 0;
      value = Array.make cap no_action;
      index = Array.make !slots (-1);
    }
  in
  let fresh before id v = if acts.n > before then acts.value.(id) <- v in
  (* a transfer between known parties, [kind] 0 or 1 *)
  let intern kind s g asset doc =
    let before = acts.n in
    let id = intern_key acts kind s g doc (money_of asset) in
    if acts.n > before then begin
      let tr = { Action.source = !party_arr.(s); target = !party_arr.(g); asset } in
      acts.value.(id) <- (if kind = 0 then Action.Do tr else Action.Undo tr)
    end;
    id
  in
  let intern_tr kind (tr : Action.transfer) =
    let s = party_id tr.Action.source in
    let g = party_id tr.Action.target in
    let before = acts.n in
    let id = intern_key acts kind s g (doc_of tr.Action.asset) (money_of tr.Action.asset) in
    if acts.n > before then acts.value.(id) <- (if kind = 0 then Action.Do tr else Action.Undo tr);
    id
  in
  let intern_action a =
    match a with
    | Action.Do tr | Action.Undo tr ->
      let s = party_id tr.Action.source in
      let g = party_id tr.Action.target in
      let kind = match a with Action.Do _ -> 0 | _ -> 1 in
      let before = acts.n in
      let id = intern_key acts kind s g (doc_of tr.Action.asset) (money_of tr.Action.asset) in
      fresh before id a;
      id
    | Action.Notify { agent; informed } ->
      let s = party_id agent in
      let g = party_id informed in
      let before = acts.n in
      let id = intern_key acts 2 s g (-1) 0 in
      fresh before id a;
      id
  in
  (* -- roles; slots are assigned once the listener table exists -- *)
  let step_of (s : Protocol.scripted_step) =
    let cond =
      match s.Protocol.condition with
      | Protocol.Now -> -1
      | Protocol.Observed a -> intern_action a
    in
    { cond; slot = -1; act = intern_action s.Protocol.action }
  in
  let persona_entry (pd : Protocol.persona_deal) =
    let pc_forward = intern_tr 0 pd.Protocol.forward in
    let pc_return = intern_tr 1 pd.Protocol.incoming in
    let pc_incoming = intern_tr 0 pd.Protocol.incoming in
    { pc_deal = Spec.deal_index spec pd.Protocol.deal.Spec.id; pc_incoming; pc_return; pc_forward }
  in
  let slot d =
    let i = Spec.deal_index spec d.Spec.id in
    let a = agent.(i) in
    (* completion forwards, documents before money *)
    let to_left () = intern 0 a left.(i) d.Spec.right_sends rcode.(i) in
    let to_right () = intern 0 a right.(i) d.Spec.left_sends lcode.(i) in
    let sl_forwards =
      if rcode.(i) < 0 && lcode.(i) >= 0 then
        let f = to_right () in
        [| f; to_left () |]
      else
        let f = to_left () in
        [| f; to_right () |]
    in
    let sl_right_back = intern 1 right.(i) a d.Spec.right_sends rcode.(i) in
    let sl_left_back = intern 1 left.(i) a d.Spec.left_sends lcode.(i) in
    let sl_right_in = intern 0 right.(i) a d.Spec.right_sends rcode.(i) in
    let sl_left_in = intern 0 left.(i) a d.Spec.left_sends lcode.(i) in
    { sl_deal = i; sl_left_in; sl_right_in; sl_left_back; sl_right_back; sl_forwards }
  in
  let deposit (o : Indemnity.offer) =
    let tr = Indemnity.deposit_transfer o in
    let dp_forfeit = intern_tr 0 (Indemnity.forfeit_transfer o) in
    let dp_back = intern_tr 1 tr in
    let dp_in = intern_tr 0 tr in
    {
      dp_in;
      dp_back;
      dp_forfeit;
      dp_deal = Spec.deal_index spec o.Indemnity.piece.Spec.deal;
      dp_left = o.Indemnity.piece.Spec.side = Spec.Left;
    }
  in
  let role_of = function
    | Protocol.Principal { script; persona } ->
      let steps = Array.map step_of (Array.of_list script) in
      Script { steps; persona = Array.map persona_entry (Array.of_list persona) }
    | Protocol.Agent { notifies; deals; deposits; atomic } ->
      let es_deals = Array.map slot (Array.of_list deals) in
      let es_deposits = Array.map deposit (Array.of_list deposits) in
      Escrow
        {
          es_atomic = atomic;
          es_deals;
          es_deposits;
          es_notifies = Array.map step_of (Array.of_list notifies);
        }
  in
  let roles =
    Protocol.role_table ~shared ?plan ~lockstep spec protocol
    |> List.map (fun (p, role) ->
           let role = role_of role in
           (party_id p, role))
    |> Array.of_list
  in
  (* -- each principal's own sides, spec order: deal [i]'s Left is
     [2i], its Right [2i + 1] -- *)
  let own_off = Array.make (n_principals + 1) 0 in
  for i = 0 to n_deals - 1 do
    own_off.(left.(i) + 1) <- own_off.(left.(i) + 1) + 1;
    own_off.(right.(i) + 1) <- own_off.(right.(i) + 1) + 1
  done;
  for p = 0 to n_principals - 1 do
    own_off.(p + 1) <- own_off.(p + 1) + own_off.(p)
  done;
  let own = Array.make (2 * n_deals) 0 in
  let next = Array.sub own_off 0 n_principals in
  for i = 0 to n_deals - 1 do
    own.(next.(left.(i))) <- 2 * i;
    next.(left.(i)) <- next.(left.(i)) + 1;
    own.(next.(right.(i))) <- (2 * i) + 1;
    next.(right.(i)) <- next.(right.(i)) + 1
  done;
  let sends k = if k land 1 = 0 then deals.(k lsr 1).Spec.left_sends else deals.(k lsr 1).Spec.right_sends in
  let sends_code k = if k land 1 = 0 then lcode.(k lsr 1) else rcode.(k lsr 1) in
  (* sides split off their own principal's conjunction (§6) *)
  let split = Array.make (if spec.Spec.splits = [] then 0 else 2 * n_deals) false in
  List.iter
    (fun (owner, (cref : Spec.commitment_ref)) ->
      let i = Spec.deal_index spec cref.Spec.deal in
      if i >= 0 && Party.equal owner (Spec.commitment_principal deals.(i) cref.Spec.side) then
        split.((2 * i) + if cref.Spec.side = Spec.Left then 0 else 1) <- true)
    spec.Spec.splits;
  (* what each principal's sides cost it in all: an indemnity covers
     every piece but the split one *)
  let cost = Array.make n_principals 0 in
  for p = 0 to n_principals - 1 do
    for j = own_off.(p) to own_off.(p + 1) - 1 do
      cost.(p) <- cost.(p) + Asset.value (sends own.(j))
    done
  done;
  (* -- audit candidate actions: per own side, its send, its
     deliveries and, when split, the indemnity amount a payout must
     cover (0 when unsplit) -- *)
  let own_checks p =
    Array.init
      (own_off.(p + 1) - own_off.(p))
      (fun j ->
        let k = own.(own_off.(p) + j) in
        let i = k lsr 1 in
        let is_split = Array.length split > 0 && split.(k) in
        let other = if k land 1 = 0 then right.(i) else left.(i) in
        let expects = sends (k lxor 1) and ecode = sends_code (k lxor 1) in
        let r0 = intern 0 agent.(i) p expects ecode in
        let r1 = intern 0 via.(i) p expects ecode in
        let r2 = intern 0 other p expects ecode in
        let send =
          intern 0 p (if agent.(i) = p then other else agent.(i)) (sends k) (sends_code k)
        in
        let amount = if is_split then cost.(p) - Asset.value (sends k) else 0 in
        ({ cc_send = send; cc_recv = [| r0; r1; r2 |]; cc_split = is_split; cc_payouts = [||] }, amount))
  in
  let judged_src =
    List.filter_map
      (fun p ->
        let party = !party_arr.(p) in
        if Party.is_trusted party then
          if persona.(p) >= 0 then None else Some (p, [||])
        else Some (p, own_checks p))
      (List.init n_spec_parties Fun.id)
  in
  let offers = match plan with Some p -> p.Indemnity.offers | None -> [] in
  let deposit_ids = List.map (fun o -> intern_tr 0 (Indemnity.deposit_transfer o)) offers in
  (* -- close the table under Undo -- *)
  let n_before_undo = acts.n in
  let undo_of = Array.make n_before_undo (-1) in
  for a = 0 to n_before_undo - 1 do
    if acts.kind.(a) = 0 then begin
      let before = acts.n in
      let u = intern_key acts 1 acts.src.(a) acts.tgt.(a) acts.doc.(a) acts.amt.(a) in
      (if acts.n > before then
         match acts.value.(a) with Action.Do tr -> acts.value.(u) <- Action.Undo tr | _ -> ());
      undo_of.(a) <- u
    end
  done;
  (* -- freeze tables -- *)
  let n_actions = acts.n in
  let actions = Array.sub acts.value 0 n_actions in
  let n_parties = !n_parties in
  let parties = Array.sub !party_arr 0 n_parties in
  let name_of = Array.sub !name_arr 0 n_parties in
  let n_names = !n_names in
  (* documents by first use in the action table, then the endowment
     documents that may never move (stalled specs) *)
  let doc_id = Array.make !n_prov (-1) in
  let docs_rev = ref [] and n_docs = ref 0 in
  let number c =
    if c >= 0 && doc_id.(c) < 0 then begin
      doc_id.(c) <- !n_docs;
      docs_rev := !prov_name.(c) :: !docs_rev;
      incr n_docs
    end
  in
  for a = 0 to n_actions - 1 do
    number acts.doc.(a)
  done;
  for i = 0 to n_deals - 1 do
    number lcode.(i);
    number rcode.(i)
  done;
  let docs = Array.of_list (List.rev !docs_rev) in
  let n_docs = !n_docs in
  let pslot_of_name = Array.make n_names (-1) in
  for slot = 0 to n_principals - 1 do
    if pslot_of_name.(name_of.(slot)) < 0 then pslot_of_name.(name_of.(slot)) <- slot
  done;
  (* -- per-action tables -- *)
  let act_kind = Array.make n_actions 2 in
  let act_debit = Array.make n_actions (-1) in
  let act_credit = Array.make n_actions (-1) in
  let act_doc = Array.make n_actions (-1) in
  let act_amount = Array.make n_actions 0 in
  let act_beneficiary = Array.make n_actions (-1) in
  let act_undo = Array.make n_actions (-1) in
  let act_deal = Array.make n_actions (-1) in
  let price_src = Array.make n_actions 0 in
  let price_tgt = Array.make n_actions 0 in
  let src_principal = Array.make n_actions false in
  let tgt_trusted = Array.make n_actions false in
  let do_of = Array.make n_actions (-1) in
  Array.iteri
    (fun a u ->
      if u >= 0 then begin
        act_undo.(a) <- u;
        do_of.(u) <- a
      end)
    undo_of;
  (* [price] is a pure valuation: a document's is asked once per party *)
  let priced = Itbl.create 16 in
  let price_of p asset d =
    if d < 0 then price parties.(p) asset
    else
      let key = (p * n_docs) + d in
      match Itbl.find_opt priced key with
      | Some value -> value
      | None ->
        let value = price parties.(p) asset in
        Itbl.add priced key value;
        value
  in
  (* audit candidates bucketed by principal: every [Do] it sends, and
     every money [Do] it receives *)
  let sends_of = Array.make n_parties [] and paid_to = Array.make n_parties [] in
  (* every transfer into or out of a trusted role: its judge's flows *)
  let flows_of = Array.make n_parties [] in
  for i = 0 to n_actions - 1 do
    let kind = acts.kind.(i) and source = acts.src.(i) and target = acts.tgt.(i) in
    if kind = 2 then act_beneficiary.(i) <- target
    else begin
      let is_do = kind = 0 in
      act_kind.(i) <- kind;
      let debit, credit = if is_do then (source, target) else (target, source) in
      act_debit.(i) <- debit;
      act_credit.(i) <- credit;
      act_beneficiary.(i) <- (if is_do then target else source);
      let c = acts.doc.(i) in
      if c >= 0 then begin
        act_doc.(i) <- doc_id.(c);
        if c < n_deal_docs then act_deal.(i) <- doc_deal.(c)
      end
      else begin
        act_amount.(i) <- acts.amt.(i);
        act_deal.(i) <- (try Itbl.find money_deal acts.amt.(i) with Not_found -> -1)
      end;
      let xsrc = parties.(debit) and xtgt = parties.(credit) in
      if Party.is_trusted xsrc then flows_of.(debit) <- i :: flows_of.(debit);
      if credit <> debit && Party.is_trusted xtgt then flows_of.(credit) <- i :: flows_of.(credit);
      if is_do then begin
        if Party.is_principal parties.(source) then sends_of.(source) <- i :: sends_of.(source);
        if c < 0 && Party.is_principal parties.(target) then paid_to.(target) <- i :: paid_to.(target)
      end;
      (* exposure views the releasing side as src: Do source / Undo target *)
      let asset =
        match actions.(i) with
        | Action.Do tr | Action.Undo tr -> tr.Action.asset
        | Action.Notify _ -> assert false
      in
      if do_of.(i) < 0 then begin
        price_src.(i) <- price_of debit asset act_doc.(i);
        price_tgt.(i) <- price_of credit asset act_doc.(i)
      end;
      src_principal.(i) <- Party.is_principal xsrc;
      tgt_trusted.(i) <- Party.is_trusted xtgt
    end
  done;
  (* an [Undo] moves its [Do]'s asset between the same two parties the
     other way *)
  Array.iteri
    (fun a u ->
      if u >= 0 then begin
        price_src.(u) <- price_tgt.(a);
        price_tgt.(u) <- price_src.(a)
      end)
    undo_of;
  (* -- audit: each principal's checks; its extraneous sends are the
     [Do]s it makes outside its own sides, which must end undone -- *)
  let own_send = Array.make n_actions false in
  List.iter
    (fun (_, checks) -> Array.iter (fun (c, _) -> own_send.(c.cc_send) <- true) checks)
    judged_src;
  let overridden p =
    (not (Party.Map.is_empty spec.Spec.overrides))
    && Spec.acceptability_overrides spec parties.(p) <> None
  in
  let judged =
    Array.of_list
      (List.map
         (fun (pi, checks) ->
           if overridden pi then Judge_override pi
           else if Party.is_trusted parties.(pi) then
             Judge_trusted { party = pi; flows = Array.of_list (List.rev flows_of.(pi)) }
           else
             let paid = Array.of_list paid_to.(pi) in
             let amounts = Array.map (fun a -> act_amount.(a)) paid in
             Array.sort Int.compare amounts;
             let check (c, amount) =
               if amount > 0 then { c with cc_payouts = covering paid act_amount amounts amount }
               else c
             in
             Judge_principal
               {
                 party = pi;
                 checks = Array.map check checks;
                 extraneous =
                   Array.of_list (List.filter (fun a -> not own_send.(a)) sends_of.(pi));
               })
         judged_src)
  in
  let deposit_expect = Array.make n_actions 0 in
  List.iter (fun i -> deposit_expect.(i) <- deposit_expect.(i) + 1) deposit_ids;
  (* -- listener table: the roles whose state observing action [a] can
     change — a step waiting on [a], a persona duty whose incoming
     transfer is [a], an escrow [a] credits. One pass counts, one
     fills; each role visits only its own steps and credits. -- *)
  let n_roles = Array.length roles in
  let escrow = Array.make n_parties false in
  Array.iter (function pi, Escrow _ -> escrow.(pi) <- true | _, Script _ -> ()) roles;
  let credited = Array.make n_parties [] in
  for a = n_actions - 1 downto 0 do
    if act_kind.(a) = 0 && escrow.(act_credit.(a)) then
      credited.(act_credit.(a)) <- a :: credited.(act_credit.(a))
  done;
  let iter_listened r f =
    let pi, role = roles.(r) in
    let wait st = if st.cond >= 0 then f st.cond in
    match role with
    | Script { steps; persona } ->
      Array.iter wait steps;
      Array.iter (fun pd -> f pd.pc_incoming) persona
    | Escrow e ->
      Array.iter wait e.es_notifies;
      List.iter f credited.(pi)
  in
  (* [mark.(a) = r]: role [r] already listens to [a] *)
  let mark = Array.make n_actions (-1) in
  let once r f a =
    if mark.(a) <> r then begin
      mark.(a) <- r;
      f a
    end
  in
  let lst_off = Array.make (n_actions + 1) 0 in
  for r = 0 to n_roles - 1 do
    iter_listened r (once r (fun a -> lst_off.(a + 1) <- lst_off.(a + 1) + 1))
  done;
  for a = 0 to n_actions - 1 do
    lst_off.(a + 1) <- lst_off.(a + 1) + lst_off.(a)
  done;
  let lst_role = Array.make lst_off.(n_actions) 0 in
  let next = Array.sub lst_off 0 n_actions and slot_of = Array.make n_actions (-1) in
  Array.fill mark 0 n_actions (-1);
  let roles =
    Array.mapi
      (fun r (pi, role) ->
        iter_listened r
          (once r (fun a ->
               slot_of.(a) <- next.(a);
               lst_role.(next.(a)) <- r;
               next.(a) <- next.(a) + 1));
        let slotted st = if st.cond < 0 then st else { st with slot = slot_of.(st.cond) } in
        match role with
        | Script { steps; persona } -> (pi, Script { steps = Array.map slotted steps; persona })
        | Escrow e -> (pi, Escrow { e with es_notifies = Array.map slotted e.es_notifies }))
      roles
  in
  (* -- automaton flags: persona deals two each; escrow deal slots four,
     deposits two -- *)
  let flag_off = Array.make (n_roles + 1) 0 in
  Array.iteri
    (fun r (_, role) ->
      let n =
        match role with
        | Script { persona; _ } -> 2 * Array.length persona
        | Escrow e -> (4 * Array.length e.es_deals) + (2 * Array.length e.es_deposits)
      in
      flag_off.(r + 1) <- flag_off.(r) + n)
    roles;
  (* -- behaviours index -- *)
  let behavior_of = Array.make n_parties (-1) in
  Array.iteri (fun i (p, _) -> behavior_of.(p) <- i) roles;
  (* -- endowments (Engine.initial_endowment, per behaviour party); a
     later role sharing a name replaces the earlier one's holdings -- *)
  let offered = Array.make n_parties 0 in
  List.iter
    (fun (o : Indemnity.offer) ->
      let p = find o.Indemnity.offered_by in
      if p >= 0 then offered.(p) <- offered.(p) + o.Indemnity.amount)
    offers;
  let endow_balance = Array.make n_names 0 in
  let endow_docs = Array.make n_names [] in
  let initial_money = ref 0 and initial_docs = ref 0 in
  Array.iter
    (fun (pi, _) ->
      let name = name_of.(pi) in
      endow_balance.(name) <- 0;
      endow_docs.(name) <- [];
      List.iter
        (function
          | Asset.Money m -> endow_balance.(name) <- endow_balance.(name) + m
          | Asset.Document doc ->
            endow_docs.(name) <- doc_id.(prov doc) :: endow_docs.(name);
            incr initial_docs)
        (Spec.endowment spec parties.(pi));
      endow_balance.(name) <- endow_balance.(name) + offered.(pi);
      initial_money := !initial_money + endow_balance.(name))
    roles;
  (* -- document holdings: the (name, document) pairs an endowment or a
     transfer can fill, numbered by name then document -- *)
  let hold_off = Array.make (n_names + 1) 0 in
  let count name = hold_off.(name + 1) <- hold_off.(name + 1) + 1 in
  Array.iteri (fun name ds -> List.iter (fun _ -> count name) ds) endow_docs;
  for a = 0 to n_actions - 1 do
    if act_doc.(a) >= 0 then begin
      count name_of.(act_debit.(a));
      count name_of.(act_credit.(a))
    end
  done;
  for name = 0 to n_names - 1 do
    hold_off.(name + 1) <- hold_off.(name + 1) + hold_off.(name)
  done;
  let hold_doc = Array.make hold_off.(n_names) 0 and next = Array.sub hold_off 0 n_names in
  let put name d =
    hold_doc.(next.(name)) <- d;
    next.(name) <- next.(name) + 1
  in
  Array.iteri (fun name ds -> List.iter (put name) ds) endow_docs;
  for a = 0 to n_actions - 1 do
    if act_doc.(a) >= 0 then begin
      put name_of.(act_debit.(a)) act_doc.(a);
      put name_of.(act_credit.(a)) act_doc.(a)
    end
  done;
  (* each name's documents sorted and deduplicated, compacted in place *)
  let n_holds = ref 0 and lo = ref 0 in
  for name = 0 to n_names - 1 do
    let hi = hold_off.(name + 1) in
    sort_range hold_doc !lo hi;
    for k = !lo to hi - 1 do
      if k = !lo || hold_doc.(k) <> hold_doc.(k - 1) then begin
        hold_doc.(!n_holds) <- hold_doc.(k);
        incr n_holds
      end
    done;
    lo := hi;
    hold_off.(name + 1) <- !n_holds
  done;
  let hold_doc = Array.sub hold_doc 0 !n_holds in
  (* the holding of (name, document) *)
  let hold name d = search hold_doc d hold_off.(name) hold_off.(name + 1) in
  let endow_holds = Array.make (Array.length hold_doc) 0 in
  Array.iteri
    (fun name ds ->
      List.iter
        (fun d ->
          let h = hold name d in
          endow_holds.(h) <- endow_holds.(h) + 1)
        ds)
    endow_docs;
  let act_hold party =
    Array.init n_actions (fun a ->
        if act_doc.(a) < 0 then -1 else hold name_of.(party.(a)) act_doc.(a))
  in
  (* -- deadlines, bounds -- *)
  let expiries = ref [] in
  Array.iteri
    (fun i d ->
      match d.Spec.deadline with Some dl -> expiries := (i, dl) :: !expiries | None -> ())
    deals;
  let bound = Array.init n_principals (fun p -> Spec.single_transfer_bound spec parties.(p)) in
  {
    spec;
    plan;
    lockstep;
    n_deals;
    parties;
    name_of;
    n_names;
    pslot_of_name;
    n_principals;
    actions;
    n_actions;
    act_kind;
    act_debit;
    act_credit;
    act_doc;
    act_amount;
    act_beneficiary;
    act_undo;
    act_deal;
    act_label = Atomic.make [||];
    deal_ids = Array.map (fun d -> d.Spec.id) deals;
    docs;
    n_docs;
    roles;
    behavior_of;
    lst_off;
    lst_role;
    flag_off;
    endow_balance;
    hold_off;
    hold_doc;
    endow_holds;
    act_src_hold = act_hold act_debit;
    act_dst_hold = act_hold act_credit;
    expiries = Array.of_list (List.rev !expiries);
    judged;
    initial_money = !initial_money;
    initial_docs = !initial_docs;
    deposit_expect;
    price_src;
    price_tgt;
    src_principal;
    tgt_trusted;
    bound;
  }
