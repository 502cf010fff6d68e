open Exchange
module Protocol = Trust_core.Protocol
module Indemnity = Trust_core.Indemnity

type observation = Start | Incoming of Action.t | Expired of string | Deadline

type t = { party : Party.t; react : observation -> Action.t list }

let party t = t.party
let react t obs = t.react obs
let make party react = { party; react }

let pp_observation ppf = function
  | Start -> Format.pp_print_string ppf "start"
  | Incoming a -> Format.fprintf ppf "incoming %a" Action.pp a
  | Expired deal -> Format.fprintf ppf "expired %s" deal
  | Deadline -> Format.pp_print_string ppf "deadline"

(* Shared script-runner: fire each step once its condition is met by any
   observed action so far, preserving script order. *)
module Script = struct
  type state = { mutable observed : Action.t list; mutable remaining : Protocol.scripted_step list }

  let create steps = { observed = []; remaining = steps }

  let note state = function
    | Incoming a -> state.observed <- a :: state.observed
    | Start | Expired _ | Deadline -> ()

  let satisfied state = function
    | Protocol.Now -> true
    | Protocol.Observed a -> List.exists (Action.equal a) state.observed

  let fire state =
    let rec take acc = function
      | step :: rest when satisfied state step.Protocol.condition ->
        take (step.Protocol.action :: acc) rest
      | rest ->
        state.remaining <- rest;
        List.rev acc
    in
    take [] state.remaining
end

let scripted party steps =
  let state = Script.create steps in
  let react obs =
    Script.note state obs;
    match obs with
    | Start | Incoming _ -> Script.fire state
    | Expired _ | Deadline -> []
  in
  { party; react }

let silent party = { party; react = (fun _ -> []) }

(* Escrow duties of a principal playing trusted roles: return deposits of
   deals it never completed (its own counterpart transfer never fired). *)
let with_persona_duties spec party inner =
  let persona_deals =
    List.filter
      (fun d -> Spec.persona_of spec d.Spec.via = Some party)
      spec.Spec.deals
  in
  let my_side d = if Party.equal d.Spec.left party then Spec.Left else Spec.Right in
  let counterparty d = Spec.commitment_principal d (Spec.other_side (my_side d)) in
  (* the trusting counterparty's deposit into me *)
  let incoming_of d =
    Action.
      {
        source = counterparty d;
        target = party;
        asset = Spec.commitment_sends d (Spec.other_side (my_side d));
      }
  in
  (* my own irrevocable counterpart transfer *)
  let forward_of d =
    Action.
      {
        source = party;
        target = counterparty d;
        asset = Spec.commitment_sends d (my_side d);
      }
  in
  let received : (string, Action.transfer) Hashtbl.t = Hashtbl.create 4 in
  let completed : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let note_incoming action =
    match action with
    | Action.Do tr when Party.equal tr.Action.target party ->
      List.iter
        (fun d ->
          if Action.equal (Action.Do tr) (Action.Do (incoming_of d)) then
            Hashtbl.replace received d.Spec.id tr)
        persona_deals
    | Action.Do _ | Action.Undo _ | Action.Notify _ -> ()
  in
  let note_outgoing actions =
    List.iter
      (fun action ->
        List.iter
          (fun d ->
            if Action.equal action (Action.Do (forward_of d)) then
              Hashtbl.replace completed d.Spec.id ())
          persona_deals)
      actions
  in
  let returns_at_deadline () =
    List.filter_map
      (fun d ->
        match Hashtbl.find_opt received d.Spec.id with
        | Some tr when not (Hashtbl.mem completed d.Spec.id) ->
          Hashtbl.replace completed d.Spec.id ();
          Some (Action.Undo tr)
        | Some _ | None -> None)
      persona_deals
  in
  let return_one deal_id =
    List.filter_map
      (fun d ->
        if not (String.equal d.Spec.id deal_id) then None
        else
          match Hashtbl.find_opt received d.Spec.id with
          | Some tr when not (Hashtbl.mem completed d.Spec.id) ->
            Hashtbl.replace completed d.Spec.id ();
            Some (Action.Undo tr)
          | Some _ | None -> None)
      persona_deals
  in
  let react obs =
    (match obs with
    | Incoming action -> note_incoming action
    | Start | Expired _ | Deadline -> ());
    let actions = react inner obs in
    note_outgoing actions;
    match obs with
    | Deadline -> actions @ returns_at_deadline ()
    | Expired deal_id -> actions @ return_one deal_id
    | Start | Incoming _ -> actions
  in
  { party; react }

let partial party steps ~keep =
  let state = Script.create steps in
  let emitted = ref 0 in
  let react obs =
    Script.note state obs;
    match obs with
    | Expired _ | Deadline -> []
    | Start | Incoming _ ->
      let ready = Script.fire state in
      let budget = max 0 (keep - !emitted) in
      let taken = List.filteri (fun i _ -> i < budget) ready in
      emitted := !emitted + List.length taken;
      taken
  in
  { party; react }

(* The trusted-component automaton. *)
module Escrow = struct
  type deal_state = {
    deal : Spec.deal;
    mutable got_left : bool;
    mutable got_right : bool;
    mutable completed : bool;
    mutable closed : bool;  (** past the deadline: bounce new arrivals *)
  }

  type deposit_state = {
    offer : Indemnity.offer;
    mutable received : bool;
    mutable settled : bool;
  }

  type state = {
    me : Party.t;
    spec : Spec.t;
    atomic : bool;
    deals : deal_state list;
    deposits : deposit_state list;
    notify_script : Script.state;
  }

  let side_transfer ds side =
    let d = ds.deal in
    let principal = Spec.commitment_principal d side in
    Action.{ source = principal; target = d.Spec.via; asset = Spec.commitment_sends d side }

  let forwards ds =
    let d = ds.deal in
    let to_left = Action.{ source = d.Spec.via; target = d.Spec.left; asset = d.Spec.right_sends } in
    let to_right = Action.{ source = d.Spec.via; target = d.Spec.right; asset = d.Spec.left_sends } in
    let docs, money =
      List.partition (fun tr -> Asset.is_document tr.Action.asset) [ to_left; to_right ]
    in
    List.map (fun tr -> Action.Do tr) (docs @ money)

  let deposit_transfer dep =
    Action.
      {
        source = dep.offer.Indemnity.offered_by;
        target = dep.offer.Indemnity.via;
        asset = Asset.money dep.offer.Indemnity.amount;
      }

  (* Deposits covering a deal are returned the moment the deal completes. *)
  let settle_on_completion state deal_id =
    List.concat_map
      (fun dep ->
        if
          dep.received && (not dep.settled)
          && String.equal dep.offer.Indemnity.piece.Spec.deal deal_id
        then begin
          dep.settled <- true;
          [ Action.Undo (deposit_transfer dep) ]
        end
        else [])
      state.deposits

  let match_deal_side state tr =
    let matches ds side =
      (not ds.closed)
      && (not (match side with Spec.Left -> ds.got_left | Spec.Right -> ds.got_right))
      && Action.equal (Action.Do (side_transfer ds side)) (Action.Do tr)
    in
    let rec find = function
      | [] -> None
      | ds :: rest ->
        if matches ds Spec.Left then Some (ds, Spec.Left)
        else if matches ds Spec.Right then Some (ds, Spec.Right)
        else find rest
    in
    find state.deals

  let match_deposit state tr =
    List.find_opt
      (fun dep ->
        (not dep.received) && (not dep.settled)
        && Action.equal (Action.Do (deposit_transfer dep)) (Action.Do tr))
      state.deposits

  let ready ds = ds.got_left && ds.got_right

  (* Complete a deal: emit its forwards and release any deposit covering
     it. In atomic mode completion waits until every mediated deal is
     ready, then flushes them all (§8's coordinated transaction). *)
  let complete state ds =
    ds.completed <- true;
    forwards ds @ settle_on_completion state ds.deal.Spec.id

  let on_incoming state tr =
    match match_deal_side state tr with
    | Some (ds, side) ->
      (match side with Spec.Left -> ds.got_left <- true | Spec.Right -> ds.got_right <- true);
      if state.atomic then
        if List.for_all ready state.deals then
          List.concat_map
            (fun ds -> if ds.completed then [] else complete state ds)
            state.deals
        else []
      else if ready ds && not ds.completed then complete state ds
      else []
    | None -> (
      match match_deposit state tr with
      | Some dep ->
        dep.received <- true;
        []
      | None ->
        (* An arrival for a closed deal, or something unexpected: a
           trusted component returns what it cannot account for. *)
        [ Action.Undo tr ])

  (* §6: forfeit to the protected party when it paid for the covered
     piece and the piece never completed; return to the offerer
     otherwise. *)
  let settle_at_deadline state =
    List.concat_map
      (fun dep ->
        if dep.settled || not dep.received then []
        else begin
          dep.settled <- true;
          let piece = dep.offer.Indemnity.piece in
          let covered =
            List.find_opt (fun ds -> String.equal ds.deal.Spec.id piece.Spec.deal) state.deals
          in
          let owner_paid =
            match covered with
            | None -> false
            | Some ds -> (
              match piece.Spec.side with Spec.Left -> ds.got_left | Spec.Right -> ds.got_right)
          in
          let piece_completed =
            match covered with Some ds -> ds.completed | None -> false
          in
          if owner_paid && not piece_completed then
            [
              Action.Do
                Action.
                  {
                    source = state.me;
                    target = dep.offer.Indemnity.owner;
                    asset = Asset.money dep.offer.Indemnity.amount;
                  };
            ]
          else [ Action.Undo (deposit_transfer dep) ]
        end)
      state.deposits

  (* Close one deal: return whatever it holds and stop accepting. *)
  let close ds =
    if ds.completed || ds.closed then begin
      ds.closed <- true;
      []
    end
    else begin
      ds.closed <- true;
      let return side got = if got then [ Action.Undo (side_transfer ds side) ] else [] in
      return Spec.Left ds.got_left @ return Spec.Right ds.got_right
    end

  let on_deadline state =
    List.concat_map close state.deals @ settle_at_deadline state

  (* A single deal's own deadline (§2.2): unwind that deal and settle the
     deposits that covered it — the notification tied to it has expired,
     so the intermediary is no longer bound (§2.5). *)
  let on_expired state deal_id =
    let returns =
      List.concat_map
        (fun ds -> if String.equal ds.deal.Spec.id deal_id then close ds else [])
        state.deals
    in
    let settlements =
      List.concat_map
        (fun dep ->
          if
            dep.settled || (not dep.received)
            || not (String.equal dep.offer.Indemnity.piece.Spec.deal deal_id)
          then []
          else begin
            dep.settled <- true;
            let covered =
              List.find_opt (fun ds -> String.equal ds.deal.Spec.id deal_id) state.deals
            in
            let owner_paid =
              match covered with
              | None -> false
              | Some ds -> (
                match dep.offer.Indemnity.piece.Spec.side with
                | Spec.Left -> ds.got_left
                | Spec.Right -> ds.got_right)
            in
            let piece_completed = match covered with Some ds -> ds.completed | None -> false in
            if owner_paid && not piece_completed then
              [
                Action.Do
                  Action.
                    {
                      source = state.me;
                      target = dep.offer.Indemnity.owner;
                      asset = Asset.money dep.offer.Indemnity.amount;
                    };
              ]
            else [ Action.Undo (deposit_transfer dep) ]
          end)
        state.deposits
    in
    returns @ settlements
end

let coordinator spec me =
  let deals =
    List.map
      (fun d ->
        Escrow.{ deal = d; got_left = false; got_right = false; completed = false; closed = false })
      spec.Spec.deals
  in
  let state =
    Escrow.{ me; spec; atomic = false; deals; deposits = []; notify_script = Script.create [] }
  in
  (* Deposits to see before anything becomes irrevocable: all money
     sides, and the document sides their owners hold from the start
     (resold copies cycle through later). *)
  let required =
    List.filter_map
      (fun (cref, d) -> if Spec.endowed spec d cref.Spec.side then Some cref else None)
      (Spec.commitments spec)
  in
  let have cref =
    List.exists
      (fun ds ->
        String.equal ds.Escrow.deal.Spec.id cref.Spec.deal
        &&
        match cref.Spec.side with
        | Spec.Left -> ds.Escrow.got_left
        | Spec.Right -> ds.Escrow.got_right)
      deals
  in
  let ready () = List.for_all have required in
  let launched = ref false in
  let flush_complete () =
    List.concat_map
      (fun ds ->
        if Escrow.ready ds && not ds.Escrow.completed then Escrow.complete state ds else [])
      deals
  in
  let react obs =
    match obs with
    | Start -> []
    | Incoming (Action.Do tr) when Party.equal tr.Action.target me ->
      (* atomic=true suppresses per-deal forwards inside on_incoming;
         the launch gate below is weaker — endowable deposits only — so
         we drive the flush ourselves once launched. *)
      let reactions = Escrow.on_incoming { state with Escrow.atomic = true } tr in
      if !launched || ready () then begin
        launched := true;
        reactions @ flush_complete ()
      end
      else reactions
    | Incoming (Action.Do _ | Action.Undo _ | Action.Notify _) -> []
    | Expired deal_id -> Escrow.on_expired state deal_id
    | Deadline -> Escrow.on_deadline state
  in
  { party = me; react }

let escrow ?(atomic = false) spec me ~notifies ~indemnities =
  let deals =
    List.filter_map
      (fun d ->
        if Party.equal d.Spec.via me then
          Some
            Escrow.{ deal = d; got_left = false; got_right = false; completed = false; closed = false }
        else None)
      spec.Spec.deals
  in
  let deposits =
    List.filter_map
      (fun offer ->
        if Party.equal offer.Indemnity.via me then
          Some Escrow.{ offer; received = false; settled = false }
        else None)
      indemnities
  in
  let state =
    Escrow.{ me; spec; atomic; deals; deposits; notify_script = Script.create notifies }
  in
  let react obs =
    Script.note state.Escrow.notify_script obs;
    let automaton =
      match obs with
      | Start -> []
      | Incoming (Action.Do tr) when Party.equal tr.Action.target me ->
        Escrow.on_incoming state tr
      | Incoming (Action.Do _ | Action.Undo _ | Action.Notify _) -> []
      | Expired deal_id -> Escrow.on_expired state deal_id
      | Deadline -> Escrow.on_deadline state
    in
    let notifies =
      match obs with
      | Deadline | Expired _ -> []
      | Start | Incoming _ -> Script.fire state.Escrow.notify_script
    in
    automaton @ notifies
  in
  { party = me; react }
