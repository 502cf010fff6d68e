(* The exposure ledger: a custody-tracking fold over the delivery log.

   Each asset that enters a custody holder (a genuine trusted agent: a
   persona is an endpoint of every deal its role mediates, so what it
   receives is its own) is queued FIFO with its original contributor
   and classification, so later forwards, agent-to-agent migrations,
   deadline refunds and indemnity settlements debit the right
   principal's position. A principal's
   at-risk value is what it has released into other principals' hands
   (directly, through a persona, or by an escrow settling its side)
   minus what it has received back — escrowed custody at genuine
   trusted agents is out of its hands but protected, and is accounted
   separately, which is exactly the §8 trade-off: mediation converts
   at-risk exposure into escrow at the price of extra messages. *)

open Exchange
module Indemnity = Trust_core.Indemnity
module Obs = Trust_obs.Obs

type sample = {
  at : int;
  at_risk : Asset.money;
  in_escrow : Asset.money;
  deposits : Asset.money;
  goods_out : int;
}

type violation_kind =
  | Bound_exceeded of { at_risk : Asset.money; bound : Asset.money }
  | Unsettled of { residual : Asset.money }

type violation = { v_party : Party.t; v_at : int; v_kind : violation_kind }

type deal_summary = {
  d_party : Party.t;
  d_deal : string;
  d_peak : Asset.money;
  d_first : int;
  d_last : int;
}

type party_ledger = {
  party : Party.t;
  bound : Asset.money;
  timeline : sample list;
  peak_at_risk : Asset.money;
  peak_in_escrow : Asset.money;
  peak_deposits : Asset.money;
  risk_ticks : int;
  final : sample;
}

type agent_ledger = {
  agent : Party.t;
  custody_timeline : (int * Asset.money) list;
  peak_custody : Asset.money;
  final_custody : Asset.money;
}

type t = {
  parties : party_ledger list;
  agents : agent_ledger list;
  deals : deal_summary list;
  violations : violation list;
  duration : int;
}

(* -- mutable fold state -- *)

type cls = Protected | Exposed | Deposit
(* Protected: held at a genuine trusted agent. Exposed: in another
   principal's hands (direct transfer, or custody at a persona).
   Deposit: a §6 indemnity deposit at its trusted holder. *)

type entry = {
  e_contrib : Party.t option;  (* None: unattributed custody *)
  mutable e_value : Asset.money;  (* remaining value (money splits) *)
  e_cls : cls;
  e_deal : string option;
}

type astate = {
  a_party : Party.t;
  mutable a_docs : (string * entry) list;  (* FIFO, oldest first *)
  mutable a_money : entry list;  (* FIFO, oldest first *)
  mutable a_custody : Asset.money;
  mutable a_peak : Asset.money;
  mutable a_samples : (int * Asset.money) list;  (* reversed *)
}

type dstate = {
  mutable d_out : Asset.money;  (* outstanding outgoing value *)
  mutable d_recv : Asset.money;
  mutable ds_peak : Asset.money;
  mutable ds_first : int;
  mutable ds_last : int;
}

type pstate = {
  p_party : Party.t;
  p_bound : Asset.money;
  p_honest : bool;
  mutable p_released : Asset.money;  (* value in other principals' hands *)
  mutable p_received : Asset.money;
  mutable p_escrow : Asset.money;
  mutable p_deposits : Asset.money;
  mutable p_goods_out : int;
  mutable p_samples : sample list;  (* reversed *)
  mutable p_peak_risk : Asset.money;
  mutable p_peak_escrow : Asset.money;
  mutable p_peak_deposits : Asset.money;
  mutable p_risk_ticks : int;
  mutable p_prev_at : int;  (* tick of the last sample *)
  mutable p_prev_risk : Asset.money;
  mutable p_risk_since : int;  (* first tick of the current risk window, -1 if none *)
  mutable p_bound_flagged : bool;
  p_deals : (string, dstate) Hashtbl.t;
}

let at_risk_of p = max 0 (p.p_released - p.p_received)

let of_result ?plan ?(defectors = []) spec (result : Engine.result) =
  let price = Trace.price_for spec in
  let principals = Spec.principals spec in
  let pstates =
    List.map
      (fun party ->
        ( Party.name party,
          {
            p_party = party;
            p_bound = Spec.single_transfer_bound spec party;
            p_honest = not (List.exists (Party.equal party) defectors);
            p_released = 0;
            p_received = 0;
            p_escrow = 0;
            p_deposits = 0;
            p_goods_out = 0;
            p_samples = [];
            p_peak_risk = 0;
            p_peak_escrow = 0;
            p_peak_deposits = 0;
            p_risk_ticks = 0;
            p_prev_at = 0;
            p_prev_risk = 0;
            p_risk_since = -1;
            p_bound_flagged = false;
            p_deals = Hashtbl.create 4;
          } ))
      principals
  in
  let pstate party = List.assoc_opt (Party.name party) pstates in
  let agents : (string, astate) Hashtbl.t = Hashtbl.create 8 in
  let agent_order = ref [] in
  let astate party =
    let key = Party.name party in
    match Hashtbl.find_opt agents key with
    | Some a -> a
    | None ->
      let a =
        { a_party = party; a_docs = []; a_money = []; a_custody = 0; a_peak = 0; a_samples = [] }
      in
      Hashtbl.replace agents key a;
      agent_order := key :: !agent_order;
      a
  in
  let violations = ref [] in
  (* outstanding §6 deposit transfers, matched one occurrence at a time *)
  let pending_deposits =
    ref
      (match plan with
      | None -> []
      | Some p ->
        List.map
          (fun (o : Indemnity.offer) ->
            (Action.Do
               {
                 Action.source = o.Indemnity.offered_by;
                 target = o.Indemnity.via;
                 asset = Asset.money o.Indemnity.amount;
               },
              o.Indemnity.piece.Spec.deal))
          p.Indemnity.offers)
  in
  let take_deposit action =
    let rec go acc = function
      | [] -> None
      | (a, deal) :: rest when Action.equal a action ->
        pending_deposits := List.rev_append acc rest;
        Some deal
      | x :: rest -> go (x :: acc) rest
    in
    go [] !pending_deposits
  in
  (* deal attribution of a party's own transfer *)
  let deal_of_send party asset =
    List.find_map
      (fun (cref, d) ->
        if
          Party.equal (Spec.commitment_principal d cref.Spec.side) party
          && Asset.equal (Spec.commitment_sends d cref.Spec.side) asset
        then Some d.Spec.id
        else None)
      (Spec.commitments spec)
  in
  let deal_of_receive party asset =
    List.find_map
      (fun (cref, d) ->
        if
          Party.equal (Spec.commitment_principal d cref.Spec.side) party
          && Asset.equal (Spec.commitment_expects d cref.Spec.side) asset
        then Some d.Spec.id
        else None)
      (Spec.commitments spec)
  in
  let dstate p deal =
    match Hashtbl.find_opt p.p_deals deal with
    | Some d -> d
    | None ->
      let d = { d_out = 0; d_recv = 0; ds_peak = 0; ds_first = -1; ds_last = -1 } in
      Hashtbl.replace p.p_deals deal d;
      d
  in
  let deal_out p deal v =
    match deal with
    | None -> ()
    | Some id ->
      let d = dstate p id in
      d.d_out <- d.d_out + v
  in
  let deal_recv p deal v =
    match deal with
    | None -> ()
    | Some id ->
      let d = dstate p id in
      d.d_recv <- d.d_recv + v
  in
  (* contributor position changes, routed by classification *)
  let contribute p cls deal v is_doc =
    (match cls with
    | Protected -> p.p_escrow <- p.p_escrow + v
    | Exposed -> p.p_released <- p.p_released + v
    | Deposit -> p.p_deposits <- p.p_deposits + v);
    if is_doc then p.p_goods_out <- p.p_goods_out + 1;
    deal_out p deal v
  in
  let uncontribute p cls deal v is_doc =
    (match cls with
    | Protected -> p.p_escrow <- p.p_escrow - v
    | Exposed -> p.p_released <- p.p_released - v
    | Deposit -> p.p_deposits <- p.p_deposits - v);
    if is_doc then p.p_goods_out <- p.p_goods_out - 1;
    (match deal with
    | None -> ()
    | Some id ->
      let d = dstate p id in
      d.d_out <- d.d_out - v)
  in
  (* escrow (or deposit) settles away from the contributor: the value
     is now in another principal's hands, i.e. at risk until covered *)
  let release p cls deal v =
    match cls with
    | Protected ->
      p.p_escrow <- p.p_escrow - v;
      p.p_released <- p.p_released + v
    | Deposit ->
      p.p_deposits <- p.p_deposits - v;
      p.p_released <- p.p_released + v
    | Exposed -> ignore deal
  in
  let has_custody holder asset =
    match Hashtbl.find_opt agents (Party.name holder) with
    | None -> false
    | Some a -> (
      match asset with
      | Asset.Document name -> List.exists (fun (n, _) -> n = name) a.a_docs
      | Asset.Money _ -> a.a_money <> [])
  in
  (* Consume custody covering [asset] from [holder]'s FIFO queues.
     [prefer] pulls entries of that contributor first (refund
     addressing). Returns (consumed entries with their values,
     unattributed remainder). *)
  let consume holder asset ?prefer () =
    let a = astate holder in
    match asset with
    | Asset.Document name ->
      let pick l =
        let rec go acc = function
          | [] -> None
          | (n, e) :: rest when n = name -> (
            match prefer with
            | Some p when e.e_contrib <> Some p -> go ((n, e) :: acc) rest
            | _ -> Some (e, List.rev_append acc rest)
          )
          | x :: rest -> go (x :: acc) rest
        in
        go [] l
      in
      let found =
        match pick a.a_docs with
        | Some _ as r -> r
        | None ->
          (* no preferred entry: fall back to plain FIFO *)
          let rec go acc = function
            | [] -> None
            | (n, e) :: rest when n = name -> Some (e, List.rev_append acc rest)
            | x :: rest -> go (x :: acc) rest
          in
          go [] a.a_docs
      in
      (match found with
      | Some (e, rest) ->
        a.a_docs <- rest;
        a.a_custody <- a.a_custody - e.e_value;
        ([ (e, e.e_value) ], 0)
      | None -> ([], 0))
    | Asset.Money m ->
      let queue =
        match prefer with
        | None -> a.a_money
        | Some p ->
          let mine, others =
            List.partition (fun e -> e.e_contrib = Some p) a.a_money
          in
          mine @ others
      in
      let rec go taken need = function
        | rest when need = 0 -> (List.rev taken, 0, rest)
        | [] -> (List.rev taken, need, [])
        | e :: rest ->
          if e.e_value <= need then go ((e, e.e_value) :: taken) (need - e.e_value) rest
          else begin
            (* split: part of the entry stays queued *)
            let used = need in
            e.e_value <- e.e_value - used;
            ( List.rev
                (( { e_contrib = e.e_contrib; e_value = used; e_cls = e.e_cls; e_deal = e.e_deal },
                   used )
                :: taken),
              0,
              e :: rest )
          end
      in
      let taken, shortfall, rest = go [] m queue in
      a.a_money <- rest;
      let covered = m - shortfall in
      a.a_custody <- a.a_custody - covered;
      (taken, shortfall)
  in
  let push_custody holder asset entries =
    let a = astate holder in
    (match asset with
    | Asset.Document name ->
      a.a_docs <- a.a_docs @ List.map (fun e -> (name, e)) entries
    | Asset.Money _ -> a.a_money <- a.a_money @ entries);
    List.iter (fun e -> a.a_custody <- a.a_custody + e.e_value) entries
  in
  (* reclassify an entry's contributor position when custody moves
     between protected and exposed holders *)
  let reclassify e (to_cls : cls) =
    match (e.e_contrib, e.e_cls) with
    | Some contrib, from_cls when from_cls <> to_cls && from_cls <> Deposit -> (
      match pstate contrib with
      | None -> e
      | Some p ->
        (match (from_cls, to_cls) with
        | Protected, Exposed ->
          p.p_escrow <- p.p_escrow - e.e_value;
          p.p_released <- p.p_released + e.e_value
        | Exposed, Protected ->
          p.p_released <- p.p_released - e.e_value;
          p.p_escrow <- p.p_escrow + e.e_value
        | _ -> ());
        { e with e_cls = to_cls })
    | _ -> e
  in
  let apply action =
    match action with
    | Action.Notify _ -> ()
    | Action.Do tr | Action.Undo tr ->
      let src, tgt =
        match action with
        | Action.Do _ -> (tr.Action.source, tr.Action.target)
        | Action.Undo _ -> (tr.Action.target, tr.Action.source)
        | Action.Notify _ -> assert false
      in
      let asset = tr.Action.asset in
      let is_doc = Asset.is_document asset in
      let is_undo = match action with Action.Undo _ -> true | _ -> false in
      let deposit_deal = if is_undo then None else take_deposit action in
      (* provenance: custody consumed from the sender, plus the
         sender's own contribution for the uncovered remainder *)
      let prefer = if is_undo then Some tgt else None in
      let src_had_custody = has_custody src asset in
      let consumed, money_shortfall =
        if src_had_custody then consume src asset ?prefer ()
        else ([], match asset with Asset.Money m -> m | Asset.Document _ -> 0)
      in
      (* the sender's own (non-custody) share of the transfer *)
      let own_value =
        match asset with
        | Asset.Document _ ->
          if consumed = [] then (if Party.is_principal src then price src asset else 0)
          else 0
        | Asset.Money _ -> money_shortfall
      in
      let sends_own = (is_doc && consumed = []) || own_value > 0 in
      if (not is_undo) && (deposit_deal <> None || Party.is_trusted tgt) then begin
        let to_cls = if deposit_deal <> None then Deposit else Protected in
        (* migrate consumed provenance, preserving contributors *)
        let moved = List.map (fun (e, v) -> reclassify { e with e_value = v } to_cls) consumed in
        let own =
          if sends_own then
            match pstate src with
            | Some p ->
              let deal =
                match deposit_deal with Some d -> Some d | None -> deal_of_send src asset
              in
              contribute p to_cls deal own_value is_doc;
              [ { e_contrib = Some src; e_value = own_value; e_cls = to_cls; e_deal = deal } ]
            | None ->
              (* a trusted sender with no ledgered custody: unattributed *)
              [ { e_contrib = None; e_value = own_value; e_cls = to_cls; e_deal = None } ]
          else []
        in
        push_custody tgt asset (moved @ own)
      end
      else begin
        (* final delivery (or return) to [tgt] *)
        let self_returned = ref 0 in
        List.iter
          (fun (e, v) ->
            match e.e_contrib with
            | Some contrib when Party.equal contrib tgt -> (
              (* the contributor gets its own asset back *)
              self_returned := !self_returned + v;
              match pstate contrib with
              | Some p -> uncontribute p e.e_cls e.e_deal v is_doc
              | None -> ())
            | Some contrib -> (
              match pstate contrib with
              | Some p -> release p e.e_cls e.e_deal v
              | None -> ())
            | None -> ())
          consumed;
        (* the sender's own share *)
        (match pstate src with
        | Some p when sends_own ->
          if is_undo then begin
            (* returning what it received earlier: its received total shrinks *)
            let v = if is_doc then price src asset else own_value in
            p.p_received <- p.p_received - v;
            deal_recv p (deal_of_receive src asset) (-v)
          end
          else contribute p Exposed (deal_of_send src asset) own_value is_doc
        | _ -> ());
        (* the recipient's position *)
        (match pstate tgt with
        | Some p ->
          if is_undo && Party.is_principal src && consumed = [] then begin
            (* its own earlier direct transfer came back: outlay cancelled *)
            let v = if is_doc then price tgt asset else own_value in
            uncontribute p Exposed (deal_of_send tgt asset) v is_doc
          end
          else begin
            let gross =
              match asset with
              | Asset.Document _ -> price tgt asset
              | Asset.Money m -> m
            in
            let v = gross - !self_returned in
            if v <> 0 then begin
              p.p_received <- p.p_received + v;
              deal_recv p (deal_of_receive tgt asset) v
            end
          end
        | None -> ())
      end
  in
  (* one sample per delivery tick, after all of that tick's deliveries *)
  let duration =
    List.fold_left (fun acc d -> max acc d.Engine.at) 0 result.Engine.log
  in
  let sample_tick at =
    List.iter
      (fun (_, p) ->
        let risk = at_risk_of p in
        let s =
          {
            at;
            at_risk = risk;
            in_escrow = p.p_escrow;
            deposits = p.p_deposits;
            goods_out = p.p_goods_out;
          }
        in
        let changed =
          match p.p_samples with
          | [] -> risk > 0 || p.p_escrow > 0 || p.p_deposits > 0 || p.p_goods_out > 0
          | prev :: _ ->
            prev.at_risk <> s.at_risk || prev.in_escrow <> s.in_escrow
            || prev.deposits <> s.deposits || prev.goods_out <> s.goods_out
        in
        if changed then begin
          p.p_samples <- s :: p.p_samples;
          p.p_peak_risk <- max p.p_peak_risk risk;
          p.p_peak_escrow <- max p.p_peak_escrow p.p_escrow;
          p.p_peak_deposits <- max p.p_peak_deposits p.p_deposits;
          if p.p_prev_risk > 0 then p.p_risk_ticks <- p.p_risk_ticks + (at - p.p_prev_at);
          if risk > 0 && p.p_risk_since < 0 then p.p_risk_since <- at;
          if risk = 0 then p.p_risk_since <- -1;
          if risk > p.p_bound && p.p_honest && not p.p_bound_flagged then begin
            p.p_bound_flagged <- true;
            violations :=
              { v_party = p.p_party; v_at = at; v_kind = Bound_exceeded { at_risk = risk; bound = p.p_bound } }
              :: !violations
          end;
          p.p_prev_at <- at;
          p.p_prev_risk <- risk
        end;
        (* per-deal windows *)
        Hashtbl.iter
          (fun _ d ->
            let out = max 0 (d.d_out - d.d_recv) in
            if out > 0 then begin
              d.ds_peak <- max d.ds_peak out;
              if d.ds_first < 0 then d.ds_first <- at;
              d.ds_last <- at
            end)
          p.p_deals)
      pstates;
    Hashtbl.iter
      (fun _ a ->
        let changed =
          match a.a_samples with [] -> a.a_custody > 0 | (_, c) :: _ -> c <> a.a_custody
        in
        if changed then begin
          a.a_samples <- (at, a.a_custody) :: a.a_samples;
          a.a_peak <- max a.a_peak a.a_custody
        end)
      agents
  in
  let rec walk = function
    | [] -> ()
    | d :: rest ->
      apply d.Engine.action;
      let tick = d.Engine.at in
      let same, rest = List.partition (fun d' -> d'.Engine.at = tick) rest in
      List.iter (fun d' -> apply d'.Engine.action) same;
      sample_tick tick;
      walk rest
  in
  walk result.Engine.log;
  (* finalization: trailing risk window + unsettled residue *)
  List.iter
    (fun (_, p) ->
      if p.p_prev_risk > 0 then begin
        p.p_risk_ticks <- p.p_risk_ticks + (duration - p.p_prev_at + 1);
        if p.p_honest then
          violations :=
            {
              v_party = p.p_party;
              v_at = (if p.p_risk_since >= 0 then p.p_risk_since else duration);
              v_kind = Unsettled { residual = p.p_prev_risk };
            }
            :: !violations
      end)
    pstates;
  let parties =
    List.map
      (fun (_, p) ->
        let final =
          match p.p_samples with
          | s :: _ -> { s with at = duration }
          | [] ->
            { at = duration; at_risk = 0; in_escrow = 0; deposits = 0; goods_out = 0 }
        in
        {
          party = p.p_party;
          bound = p.p_bound;
          timeline = List.rev p.p_samples;
          peak_at_risk = p.p_peak_risk;
          peak_in_escrow = p.p_peak_escrow;
          peak_deposits = p.p_peak_deposits;
          risk_ticks = p.p_risk_ticks;
          final;
        })
      pstates
  in
  let agent_ledgers =
    List.rev !agent_order
    |> List.filter_map (fun key ->
           match Hashtbl.find_opt agents key with
           | Some a when a.a_peak > 0 ->
             Some
               {
                 agent = a.a_party;
                 custody_timeline = List.rev a.a_samples;
                 peak_custody = a.a_peak;
                 final_custody = a.a_custody;
               }
           | _ -> None)
  in
  let deals =
    List.concat_map
      (fun (_, p) ->
        Hashtbl.fold
          (fun id d acc ->
            if d.ds_peak > 0 then
              { d_party = p.p_party; d_deal = id; d_peak = d.ds_peak; d_first = d.ds_first; d_last = d.ds_last }
              :: acc
            else acc)
          p.p_deals []
        |> List.sort (fun a b -> String.compare a.d_deal b.d_deal))
      pstates
  in
  {
    parties;
    agents = agent_ledgers;
    deals;
    violations = List.rev !violations;
    duration;
  }

let total_peak_at_risk t =
  List.fold_left (fun acc p -> acc + p.peak_at_risk) 0 t.parties

let total_peak_escrow t =
  List.fold_left (fun acc p -> acc + p.peak_in_escrow) 0 t.parties

let total_risk_ticks t = List.fold_left (fun acc p -> acc + p.risk_ticks) 0 t.parties

let violation_label = function
  | Bound_exceeded _ -> "bound_exceeded"
  | Unsettled _ -> "unsettled"

let record_summary obs ?parent ~peaks ~peak_escrow ~risk_ticks violations =
  if Obs.enabled obs then
    Obs.with_span obs ?parent ~phase:"exposure" "exposure" (fun span ->
        Obs.attr obs span "peak_at_risk" (Obs.Int (List.fold_left (fun acc (_, v) -> acc + v) 0 peaks));
        Obs.attr obs span "peak_escrow" (Obs.Int peak_escrow);
        Obs.attr obs span "risk_ticks" (Obs.Int risk_ticks);
        Obs.attr obs span "violations" (Obs.Int (List.length violations));
        List.iter
          (fun (party, peak) ->
            if peak > 0 then Obs.attr obs span ("peak_at_risk." ^ Party.name party) (Obs.Int peak))
          peaks;
        List.iter
          (fun v ->
            let amounts =
              match v.v_kind with
              | Bound_exceeded { at_risk; bound } ->
                [ ("at_risk", Obs.Int at_risk); ("bound", Obs.Int bound) ]
              | Unsettled { residual } -> [ ("residual", Obs.Int residual) ]
            in
            Obs.event obs span "violation"
              ~attrs:
                (( "party", Obs.Str (Party.name v.v_party) )
                :: ("at", Obs.Int v.v_at)
                :: ("kind", Obs.Str (violation_label v.v_kind))
                :: amounts))
          violations)

let record obs ?parent t =
  record_summary obs ?parent
    ~peaks:(List.map (fun p -> (p.party, p.peak_at_risk)) t.parties)
    ~peak_escrow:(total_peak_escrow t) ~risk_ticks:(total_risk_ticks t) t.violations

let pp_violation ppf v =
  match v.v_kind with
  | Bound_exceeded { at_risk; bound } ->
    Format.fprintf ppf "%s at t=%d: at-risk %a exceeds bound %a" (Party.name v.v_party)
      v.v_at Asset.pp_money at_risk Asset.pp_money bound
  | Unsettled { residual } ->
    Format.fprintf ppf "%s at t=%d: %a still unreciprocated at end of run"
      (Party.name v.v_party) v.v_at Asset.pp_money residual

let pp ppf t =
  Format.fprintf ppf "@[<v>exposure: duration=%d peak-at-risk=%a peak-escrow=%a violations=%d"
    t.duration Asset.pp_money (total_peak_at_risk t) Asset.pp_money (total_peak_escrow t)
    (List.length t.violations);
  List.iter
    (fun p ->
      Format.fprintf ppf "@,  %-14s bound=%a peak-at-risk=%a peak-escrow=%a risk-ticks=%d"
        (Party.to_string p.party) Asset.pp_money p.bound Asset.pp_money p.peak_at_risk
        Asset.pp_money p.peak_in_escrow p.risk_ticks)
    t.parties;
  List.iter (fun v -> Format.fprintf ppf "@,  ! %a" pp_violation v) t.violations;
  Format.fprintf ppf "@]"
