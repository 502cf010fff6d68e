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

type step = { cond : int;  (** action id to wait for; [-1] fires immediately *) act : int }

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
  | Judge_trusted of int

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
  deal_ids : string array;  (** spec order *)
  docs : string array;
  n_docs : int;
  (* behaviours, [Protocol.role_table] order *)
  roles : (int * role) array;  (** (party index, role) *)
  behavior_of : int array;  (** party index -> roles index, [-1] *)
  (* engine scaffolding *)
  endow_balance : int array;  (** per name index *)
  endow_docs : int array array;  (** per name index, per doc id *)
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

let party_index t party =
  let n = Array.length t.parties in
  let rec go i =
    if i >= n then -1 else if Party.equal t.parties.(i) party then i else go (i + 1)
  in
  go 0

let compile ~lockstep ~shared ?plan ~price spec protocol =
  if not (Party.Map.is_empty spec.Spec.overrides) then
    invalid_arg "Compile.compile: acceptability overrides are not compilable";
  let deals = Array.of_list spec.Spec.deals in
  let n_deals = Array.length deals in
  (* -- party interning -- *)
  let party_tbl : (Party.t, int) Hashtbl.t = Hashtbl.create 16 in
  let party_rev = ref [] in
  let n_parties = ref 0 in
  let party_id p =
    match Hashtbl.find_opt party_tbl p with
    | Some i -> i
    | None ->
      let i = !n_parties in
      Hashtbl.replace party_tbl p i;
      party_rev := p :: !party_rev;
      incr n_parties;
      i
  in
  List.iter (fun p -> ignore (party_id p)) (Spec.parties spec);
  (* -- action interning -- *)
  let act_tbl : (Action.t, int) Hashtbl.t = Hashtbl.create 64 in
  let act_rev = ref [] in
  let n_acts = ref 0 in
  let act_id a =
    match Hashtbl.find_opt act_tbl a with
    | Some i -> i
    | None ->
      let i = !n_acts in
      Hashtbl.replace act_tbl a i;
      act_rev := a :: !act_rev;
      incr n_acts;
      (match a with
      | Action.Do tr | Action.Undo tr ->
        ignore (party_id tr.Action.source);
        ignore (party_id tr.Action.target)
      | Action.Notify { agent; informed } ->
        ignore (party_id agent);
        ignore (party_id informed));
      i
  in
  let step_of (s : Protocol.scripted_step) =
    let cond =
      match s.Protocol.condition with
      | Protocol.Now -> -1
      | Protocol.Observed a -> act_id a
    in
    { cond; act = act_id s.Protocol.action }
  in
  let offers = match plan with Some p -> p.Indemnity.offers | None -> [] in
  let deposit_actions = match plan with Some p -> Indemnity.deposits p | None -> [] in
  let persona_entry (pd : Protocol.persona_deal) =
    {
      pc_deal = Spec.deal_index spec pd.Protocol.deal.Spec.id;
      pc_incoming = act_id (Action.Do pd.Protocol.incoming);
      pc_return = act_id (Action.Undo pd.Protocol.incoming);
      pc_forward = act_id (Action.Do pd.Protocol.forward);
    }
  in
  let slot d =
    let left_tr = Spec.commit_transfer spec d Spec.Left in
    let right_tr = Spec.commit_transfer spec d Spec.Right in
    let forwards = List.map (fun tr -> act_id (Action.Do tr)) (Spec.forwards spec d) in
    {
      sl_deal = Spec.deal_index spec d.Spec.id;
      sl_left_in = act_id (Action.Do left_tr);
      sl_right_in = act_id (Action.Do right_tr);
      sl_left_back = act_id (Action.Undo left_tr);
      sl_right_back = act_id (Action.Undo right_tr);
      sl_forwards = Array.of_list forwards;
    }
  in
  let deposit (o : Indemnity.offer) =
    let tr = Indemnity.deposit_transfer o in
    {
      dp_in = act_id (Action.Do tr);
      dp_back = act_id (Action.Undo tr);
      dp_forfeit = act_id (Action.Do (Indemnity.forfeit_transfer o));
      dp_deal = Spec.deal_index spec o.Indemnity.piece.Spec.deal;
      dp_left = o.Indemnity.piece.Spec.side = Spec.Left;
    }
  in
  let role_of = function
    | Protocol.Principal { script; persona } ->
      let steps = Array.of_list (List.map step_of script) in
      Script { steps; persona = Array.of_list (List.map persona_entry persona) }
    | Protocol.Agent { notifies; deals; deposits; atomic } ->
      let es_deals = Array.of_list (List.map slot deals) in
      let es_deposits = Array.of_list (List.map deposit deposits) in
      Escrow
        {
          es_atomic = atomic;
          es_deals;
          es_deposits;
          es_notifies = Array.of_list (List.map step_of notifies);
        }
  in
  let roles =
    Protocol.role_table ~shared ?plan ~lockstep spec protocol
    |> List.map (fun (p, role) -> (party_id p, role_of role))
    |> Array.of_list
  in
  let principals = Spec.principals spec in
  (* -- audit candidate actions, then close the table under Undo -- *)
  let judged_src =
    List.filter
      (fun party -> not (Party.is_trusted party && Spec.persona_of spec party <> None))
      (Spec.parties spec)
  in
  (* per own side: its send, its deliveries and, when split, the
     indemnity amount a payout must cover (0 when unsplit) *)
  let own_checks party =
    List.map
      (fun (cref, d) ->
        let side = cref.Spec.side in
        let split = Spec.is_split spec party cref in
        let recv =
          Array.of_list (List.map (fun tr -> act_id (Action.Do tr)) (Spec.deliveries spec d side))
        in
        let send = act_id (Action.Do (Spec.send_transfer spec d side)) in
        (send, recv, split, if split then Spec.indemnity_amount spec party cref else 0))
      (Spec.own_sides spec party)
  in
  let judged_src =
    List.map
      (fun party -> (party, if Party.is_trusted party then [] else own_checks party))
      judged_src
  in
  List.iter (fun a -> ignore (act_id a)) deposit_actions;
  let do_snapshot = List.rev !act_rev in
  List.iter
    (fun a -> match a with Action.Do tr -> ignore (act_id (Action.Undo tr)) | _ -> ())
    do_snapshot;
  (* -- freeze tables -- *)
  let actions = Array.of_list (List.rev !act_rev) in
  let n_actions = Array.length actions in
  let parties = Array.of_list (List.rev !party_rev) in
  let n_parties = Array.length parties in
  let doc_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let doc_rev = ref [] in
  let n_docs = ref 0 in
  let doc_id d =
    match Hashtbl.find_opt doc_tbl d with
    | Some i -> i
    | None ->
      let i = !n_docs in
      Hashtbl.replace doc_tbl d i;
      doc_rev := d :: !doc_rev;
      incr n_docs;
      i
  in
  Array.iter
    (function
      | Action.Do tr | Action.Undo tr -> (
        match tr.Action.asset with Asset.Document d -> ignore (doc_id d) | Asset.Money _ -> ())
      | Action.Notify _ -> ())
    actions;
  (* endowment documents may never move (stalled specs): intern them too *)
  List.iter
    (fun (cref, d) ->
      match Spec.commitment_sends d cref.Spec.side with
      | Asset.Document name -> ignore (doc_id name)
      | Asset.Money _ -> ())
    (Spec.commitments spec);
  let docs = Array.of_list (List.rev !doc_rev) in
  let n_docs = Array.length docs in
  (* -- name table (engine holdings and exposure ledgers key by name) -- *)
  let name_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let n_names = ref 0 in
  let name_of =
    Array.map
      (fun p ->
        let name = Party.name p in
        match Hashtbl.find_opt name_tbl name with
        | Some i -> i
        | None ->
          let i = !n_names in
          Hashtbl.replace name_tbl name i;
          incr n_names;
          i)
      parties
  in
  let n_names = !n_names in
  let n_principals = List.length principals in
  let pslot_of_name = Array.make n_names (-1) in
  List.iteri
    (fun slot p ->
      let name = name_of.(party_id p) in
      if pslot_of_name.(name) < 0 then pslot_of_name.(name) <- slot)
    principals;
  (* -- per-action tables -- *)
  let act_kind = Array.make n_actions 2 in
  let act_debit = Array.make n_actions (-1) in
  let act_credit = Array.make n_actions (-1) in
  let act_doc = Array.make n_actions (-1) in
  let act_amount = Array.make n_actions 0 in
  let act_beneficiary = Array.make n_actions (-1) in
  let act_undo = Array.make n_actions (-1) in
  let price_src = Array.make n_actions 0 in
  let price_tgt = Array.make n_actions 0 in
  let src_principal = Array.make n_actions false in
  let tgt_trusted = Array.make n_actions false in
  (* audit candidates bucketed by party: every [Do] it sends, and every
     money [Do] it receives *)
  let sends_of = Array.make n_parties [] and paid_to = Array.make n_parties [] in
  Array.iteri
    (fun i action ->
      match action with
      | Action.Notify { agent; informed } ->
        act_kind.(i) <- 2;
        act_beneficiary.(i) <- party_id informed;
        ignore agent
      | Action.Do tr | Action.Undo tr ->
        let is_do = match action with Action.Do _ -> true | _ -> false in
        act_kind.(i) <- (if is_do then 0 else 1);
        let source = party_id tr.Action.source and target = party_id tr.Action.target in
        let debit, credit = if is_do then (source, target) else (target, source) in
        act_debit.(i) <- debit;
        act_credit.(i) <- credit;
        act_beneficiary.(i) <- (if is_do then target else source);
        (match tr.Action.asset with
        | Asset.Document d -> act_doc.(i) <- doc_id d
        | Asset.Money m -> act_amount.(i) <- m);
        if is_do then begin
          sends_of.(source) <- i :: sends_of.(source);
          if act_doc.(i) < 0 then paid_to.(target) <- i :: paid_to.(target)
        end;
        (* exposure views the releasing side as src: Do source / Undo target *)
        let xsrc = parties.(debit) and xtgt = parties.(credit) in
        price_src.(i) <- price xsrc tr.Action.asset;
        price_tgt.(i) <- price xtgt tr.Action.asset;
        src_principal.(i) <- Party.is_principal xsrc;
        tgt_trusted.(i) <- Party.is_trusted xtgt)
    actions;
  Array.iter
    (function
      | Action.Do tr as a ->
        act_undo.(Hashtbl.find act_tbl a) <- Hashtbl.find act_tbl (Action.Undo tr)
      | Action.Undo _ | Action.Notify _ -> ())
    actions;
  (* -- audit: each principal's checks; its extraneous sends are the
     [Do]s it makes outside its own sides, which must end undone -- *)
  let own_send = Array.make n_actions false in
  List.iter
    (fun (_, checks) -> List.iter (fun (send, _, _, _) -> own_send.(send) <- true) checks)
    judged_src;
  let judged =
    Array.of_list
      (List.map
         (fun (party, checks) ->
           let pi = party_id party in
           if Party.is_trusted party then Judge_trusted pi
           else
             let check (send, recv, split, amount) =
               let covers a = act_amount.(a) >= amount in
               {
                 cc_send = send;
                 cc_recv = recv;
                 cc_split = split;
                 cc_payouts =
                   (if amount > 0 then Array.of_list (List.filter covers paid_to.(pi)) else [||]);
               }
             in
             Judge_principal
               {
                 party = pi;
                 checks = Array.of_list (List.map check checks);
                 extraneous =
                   Array.of_list (List.filter (fun a -> not own_send.(a)) sends_of.(pi));
               })
         judged_src)
  in
  let deposit_expect = Array.make n_actions 0 in
  List.iter
    (fun (o : Indemnity.offer) ->
      let i = Hashtbl.find act_tbl (Action.Do (Indemnity.deposit_transfer o)) in
      deposit_expect.(i) <- deposit_expect.(i) + 1)
    offers;
  (* -- behaviours index -- *)
  let behavior_of = Array.make n_parties (-1) in
  Array.iteri (fun i (p, _) -> behavior_of.(p) <- i) roles;
  (* -- endowments (Engine.initial_endowment, per behaviour party) -- *)
  let endow_balance = Array.make n_names 0 in
  let endow_docs = Array.init n_names (fun _ -> Array.make n_docs 0) in
  let initial_money = ref 0 and initial_docs = ref 0 in
  Array.iter
    (fun (pi, _) ->
      let party = parties.(pi) in
      let name = name_of.(pi) in
      endow_balance.(name) <- 0;
      Array.fill endow_docs.(name) 0 n_docs 0;
      List.iter
        (function
          | Asset.Money m -> endow_balance.(name) <- endow_balance.(name) + m
          | Asset.Document doc ->
            let di = doc_id doc in
            endow_docs.(name).(di) <- endow_docs.(name).(di) + 1)
        (Spec.endowment spec party);
      List.iter
        (fun (o : Indemnity.offer) ->
          if Party.equal o.Indemnity.offered_by party then
            endow_balance.(name) <- endow_balance.(name) + o.Indemnity.amount)
        offers;
      initial_money := !initial_money + endow_balance.(name);
      initial_docs := Array.fold_left ( + ) !initial_docs endow_docs.(name))
    roles;
  (* -- deadlines, bounds -- *)
  let expiries = ref [] in
  Array.iteri
    (fun i d ->
      match d.Spec.deadline with Some dl -> expiries := (i, dl) :: !expiries | None -> ())
    deals;
  let bound = Array.of_list (List.map (Spec.single_transfer_bound spec) principals) in
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
    act_deal = Array.map (owning_deal spec) actions;
    deal_ids = Array.map (fun d -> d.Spec.id) deals;
    docs;
    n_docs;
    roles;
    behavior_of;
    endow_balance;
    endow_docs;
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
