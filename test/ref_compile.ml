(* The plan compiler as it was before it interned parties, documents
   and actions to ints and tabled each party's own sides, deliveries and
   prices in one pass: the same [Trust_core.Compile.t], built through
   polymorphic hash tables and {!Exchange.Spec} queries that each rescan
   a party's sides, together with the protocol's role table and escrow
   atomicity as they were then built (per-principal scans of the
   offers, the scripts and the deals), and the §5 bounds from the
   rescanning [Ref_spec]. On wide specs it costs quadratic time. Kept
   so the linear compiler can be compared against it field by field.
   Tests only. *)

open Exchange
module Protocol = Trust_core.Protocol
module Indemnity = Trust_core.Indemnity
module Sequencing = Trust_core.Sequencing
open Trust_core.Compile

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

let atomic_escrow ~shared spec =
  let coordinators = List.map snd (Sequencing.coordinated_bundles spec) in
  fun agent ->
    List.exists (Party.equal agent) coordinators
    || ((not shared) && List.compare_length_with (Spec.mediated_by spec agent) 1 > 0)

let role_table ?(shared = false) ?plan ~lockstep spec t =
  let offers = match plan with Some p -> p.Indemnity.offers | None -> [] in
  let atomic = atomic_escrow ~shared spec in
  (* Distributed mode prepends unconditional deposits to each offerer's
     script; lockstep mode chains them through the protocol prologue. *)
  let deposit_steps party =
    List.filter_map
      (fun o ->
        if Party.equal o.Indemnity.offered_by party then
          Some { Protocol.condition = Protocol.Now; action = Action.Do (Indemnity.deposit_transfer o) }
        else None)
      offers
  in
  let principal party =
    let script = if lockstep then Protocol.script_of t party else deposit_steps party @ Protocol.script_of t party in
    let persona =
      if not (Party.Map.exists (fun _ p -> Party.equal p party) spec.Spec.personas) then []
      else
        List.filter_map
          (fun d ->
            if Spec.persona_of spec d.Spec.via = Some party then
              let incoming, forward = Spec.persona_transfers spec d party in
              Some { Protocol.deal = d; incoming; forward }
            else None)
          spec.Spec.deals
    in
    (party, Protocol.Principal { script; persona })
  in
  let agent party =
    match Spec.persona_of spec party with
    | Some _ -> None (* the persona principal acts; no separate agent *)
    | None ->
      let notifies =
        List.filter
          (fun s -> match s.Protocol.action with Action.Notify _ -> true | _ -> false)
          (Protocol.script_of t party)
      in
      let deposits = List.filter (fun o -> Party.equal o.Indemnity.via party) offers in
      Some
        ( party,
          Protocol.Agent { notifies; deals = Spec.mediated_by spec party; deposits; atomic = atomic party } )
  in
  List.map principal (Spec.principals spec) @ List.filter_map agent (Spec.trusted_agents spec)

let compile ~lockstep ~shared ?plan ~price spec protocol =
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
  (* slots are assigned once the listener table exists *)
  let step_of (s : Protocol.scripted_step) =
    let cond =
      match s.Protocol.condition with
      | Protocol.Now -> -1
      | Protocol.Observed a -> act_id a
    in
    { cond; slot = -1; act = act_id s.Protocol.action }
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
    role_table ~shared ?plan ~lockstep spec protocol
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
  (* every transfer into or out of a party: a trusted judge's flows *)
  let flows_of = Array.make n_parties [] in
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
        flows_of.(debit) <- i :: flows_of.(debit);
        if credit <> debit then flows_of.(credit) <- i :: flows_of.(credit);
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
           if Spec.acceptability_overrides spec party <> None then Judge_override pi
           else if Party.is_trusted party then
             Judge_trusted { party = pi; flows = Array.of_list (List.rev flows_of.(pi)) }
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
  (* -- listener table: the roles whose state observing action [a] can
     change — a step waiting on [a], a persona duty whose incoming
     transfer is [a], an escrow [a] credits. One pass counts, one
     fills; each role visits only its own steps and credits. -- *)
  let n_roles = Array.length roles in
  let credited = Array.make n_parties [] in
  for a = n_actions - 1 downto 0 do
    if act_kind.(a) = 0 then credited.(act_credit.(a)) <- a :: credited.(act_credit.(a))
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
  let endow_balance = Array.make n_names 0 in
  let endow_docs = Array.make n_names [] in
  let initial_money = ref 0 and initial_docs = ref 0 in
  Array.iter
    (fun (pi, _) ->
      let party = parties.(pi) in
      let name = name_of.(pi) in
      endow_balance.(name) <- 0;
      endow_docs.(name) <- [];
      List.iter
        (function
          | Asset.Money m -> endow_balance.(name) <- endow_balance.(name) + m
          | Asset.Document doc ->
            endow_docs.(name) <- doc_id doc :: endow_docs.(name);
            incr initial_docs)
        (Spec.endowment spec party);
      List.iter
        (fun (o : Indemnity.offer) ->
          if Party.equal o.Indemnity.offered_by party then
            endow_balance.(name) <- endow_balance.(name) + o.Indemnity.amount)
        offers;
      initial_money := !initial_money + endow_balance.(name))
    roles;
  (* -- document holdings: the (name, document) pairs an endowment or a
     transfer can fill, numbered by name then document -- *)
  let hold_key name d = (name * n_docs) + d in
  let keys = ref [] in
  Array.iteri (fun name ds -> List.iter (fun d -> keys := hold_key name d :: !keys) ds) endow_docs;
  for a = 0 to n_actions - 1 do
    let d = act_doc.(a) in
    if d >= 0 then
      keys := hold_key name_of.(act_debit.(a)) d :: hold_key name_of.(act_credit.(a)) d :: !keys
  done;
  let keys = Array.of_list (List.sort_uniq Int.compare !keys) in
  let hold_tbl = Hashtbl.create (Array.length keys) in
  Array.iteri (fun h k -> Hashtbl.replace hold_tbl k h) keys;
  let hold_doc = Array.map (fun k -> k mod n_docs) keys in
  let hold_off = Array.make (n_names + 1) 0 in
  Array.iter (fun k -> hold_off.((k / n_docs) + 1) <- hold_off.((k / n_docs) + 1) + 1) keys;
  for name = 0 to n_names - 1 do
    hold_off.(name + 1) <- hold_off.(name + 1) + hold_off.(name)
  done;
  let endow_holds = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun name ds ->
      List.iter
        (fun d ->
          let h = Hashtbl.find hold_tbl (hold_key name d) in
          endow_holds.(h) <- endow_holds.(h) + 1)
        ds)
    endow_docs;
  let act_hold party =
    Array.init n_actions (fun a ->
        if act_doc.(a) < 0 then -1
        else Hashtbl.find hold_tbl (hold_key name_of.(party.(a)) act_doc.(a)))
  in
  (* -- deadlines, bounds -- *)
  let expiries = ref [] in
  Array.iteri
    (fun i d ->
      match d.Spec.deadline with Some dl -> expiries := (i, dl) :: !expiries | None -> ())
    deals;
  let bound = Array.of_list (List.map (Ref_spec.single_transfer_bound spec) principals) in
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
