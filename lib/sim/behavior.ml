open Exchange
module Protocol = Trust_core.Protocol
module Indemnity = Trust_core.Indemnity

type observation = Start | Incoming of Action.t | Expired of string | Deadline

type t = { party : Party.t; react : observation -> Action.t list }

let party t = t.party
let react t obs = t.react obs
let make party react = { party; react }

(* Shared script-runner: fire each step once its condition is met by any
   observed action so far, preserving script order. Only the actions the
   script's conditions await matter, so the runner keeps those not yet
   observed; observing anything else changes nothing. *)
module Script = struct
  module Action_set = Set.Make (Action)

  type state = { mutable unseen : Action_set.t; mutable remaining : Protocol.scripted_step list }

  let create steps =
    let awaited step =
      match step.Protocol.condition with Protocol.Observed a -> Some a | Protocol.Now -> None
    in
    { unseen = Action_set.of_list (List.filter_map awaited steps); remaining = steps }

  let note state = function
    | Incoming a -> state.unseen <- Action_set.remove a state.unseen
    | Start | Expired _ | Deadline -> ()

  let satisfied state = function
    | Protocol.Now -> true
    | Protocol.Observed a -> not (Action_set.mem a state.unseen)

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
let with_persona_duties party persona inner =
  let received : (string, Action.transfer) Hashtbl.t = Hashtbl.create 4 in
  let completed : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let note_incoming action =
    match action with
    | Action.Do tr when Party.equal tr.Action.target party ->
      List.iter
        (fun pd ->
          if Action.equal (Action.Do tr) (Action.Do pd.Protocol.incoming) then
            Hashtbl.replace received pd.Protocol.deal.Spec.id tr)
        persona
    | Action.Do _ | Action.Undo _ | Action.Notify _ -> ()
  in
  let note_outgoing actions =
    List.iter
      (fun action ->
        List.iter
          (fun pd ->
            if Action.equal action (Action.Do pd.Protocol.forward) then
              Hashtbl.replace completed pd.Protocol.deal.Spec.id ())
          persona)
      actions
  in
  (* return the deposits of the unfinished deals [due] selects *)
  let return_unfinished due =
    List.filter_map
      (fun pd ->
        let id = pd.Protocol.deal.Spec.id in
        if not (due id) then None
        else
          match Hashtbl.find_opt received id with
          | Some tr when not (Hashtbl.mem completed id) ->
            Hashtbl.replace completed id ();
            Some (Action.Undo tr)
          | Some _ | None -> None)
      persona
  in
  let react obs =
    (match obs with
    | Incoming action -> note_incoming action
    | Start | Expired _ | Deadline -> ());
    let actions = react inner obs in
    note_outgoing actions;
    match obs with
    | Deadline -> actions @ return_unfinished (fun _ -> true)
    | Expired deal_id -> actions @ return_unfinished (String.equal deal_id)
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
    left_in : Action.transfer;  (** the Left side's commit *)
    right_in : Action.transfer;
    forwards : Action.t list;  (** completion, documents before money *)
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
    atomic : bool;
    deals : deal_state list;
    deposits : deposit_state list;
    notify_script : Script.state;
  }

  let track spec d =
    {
      deal = d;
      left_in = Spec.commit_transfer spec d Spec.Left;
      right_in = Spec.commit_transfer spec d Spec.Right;
      forwards = List.map (fun tr -> Action.Do tr) (Spec.forwards spec d);
      got_left = false;
      got_right = false;
      completed = false;
      closed = false;
    }

  let side_transfer ds = function Spec.Left -> ds.left_in | Spec.Right -> ds.right_in

  (* Deposits covering a deal are returned the moment the deal completes. *)
  let settle_on_completion state deal_id =
    List.concat_map
      (fun dep ->
        if
          dep.received && (not dep.settled)
          && String.equal dep.offer.Indemnity.piece.Spec.deal deal_id
        then begin
          dep.settled <- true;
          [ Action.Undo (Indemnity.deposit_transfer dep.offer) ]
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
        && Action.equal (Action.Do (Indemnity.deposit_transfer dep.offer)) (Action.Do tr))
      state.deposits

  let ready ds = ds.got_left && ds.got_right

  (* Complete a deal: emit its forwards and release any deposit covering
     it. In atomic mode completion waits until every mediated deal is
     ready, then flushes them all (§8's coordinated transaction). *)
  let complete state ds =
    ds.completed <- true;
    ds.forwards @ settle_on_completion state ds.deal.Spec.id

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

  (* §6: settle the outstanding deposits whose covered deal [due]
     selects — forfeit to the protected party when it paid for the
     covered piece and the piece never completed; return to the offerer
     otherwise. *)
  let settle state due =
    List.concat_map
      (fun dep ->
        let piece = dep.offer.Indemnity.piece in
        if dep.settled || (not dep.received) || not (due piece.Spec.deal) then []
        else begin
          dep.settled <- true;
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
            [ Action.Do (Indemnity.forfeit_transfer dep.offer) ]
          else [ Action.Undo (Indemnity.deposit_transfer dep.offer) ]
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

  let on_deadline state = List.concat_map close state.deals @ settle state (fun _ -> true)

  (* A single deal's own deadline (§2.2): unwind that deal and settle the
     deposits that covered it — the notification tied to it has expired,
     so the intermediary is no longer bound (§2.5). *)
  let on_expired state deal_id =
    let returns =
      List.concat_map
        (fun ds -> if String.equal ds.deal.Spec.id deal_id then close ds else [])
        state.deals
    in
    returns @ settle state (String.equal deal_id)
end

let coordinator spec me =
  let deals = List.map (Escrow.track spec) spec.Spec.deals in
  let state = Escrow.{ atomic = false; deals; deposits = []; notify_script = Script.create [] } in
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

let escrow ?(atomic = false) spec me ~notifies ~deals ~deposits =
  let state =
    Escrow.
      {
        atomic;
        deals = List.map (track spec) deals;
        deposits = List.map (fun offer -> { offer; received = false; settled = false }) deposits;
        notify_script = Script.create notifies;
      }
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
