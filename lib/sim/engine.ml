open Exchange
module Indemnity = Trust_core.Indemnity
module Obs = Trust_obs.Obs

type config = {
  latency : int;
  deadline : int;
  max_events : int;
  broadcast : bool;
  drop : (int -> Action.t -> bool) option;
}

let default_config =
  { latency = 1; deadline = 1_000; max_events = 100_000; broadcast = false; drop = None }

type delivery = { at : int; action : Action.t }

type result = {
  state : State.t;
  log : delivery list;
  holdings : (Party.t * Asset.Bag.t) list;
  stalled : (Party.t * Action.t) list;
  events : int;
}

let initial_endowment spec ~deposits party =
  let bag =
    List.fold_left (fun bag a -> Asset.Bag.add a bag) Asset.Bag.empty (Spec.endowment spec party)
  in
  List.fold_left
    (fun bag offer ->
      if Party.equal offer.Indemnity.offered_by party then
        Asset.Bag.add (Asset.money offer.Indemnity.amount) bag
      else bag)
    bag deposits

type event = Deliver of Action.t | Fire_expiry of string | Fire_deadline

let deal_action_attrs ~deal ~at label =
  let base = [ ("at", Obs.Int at); ("action", Obs.Str label) ] in
  match deal with Some deal -> ("deal", Obs.Str deal) :: base | None -> base

(* Best-effort deal attribution for trace events ([Compile.owning_deal]:
   the first deal one of whose commitments sends or expects the
   transferred asset), tabled on a run's first traced event. *)
let action_attrs spec =
  let owning_deal = lazy (Trust_core.Compile.owning_deal spec) in
  fun ~at action ->
    let deal =
      match Lazy.force owning_deal action with
      | i when i < 0 -> None
      | i -> Some (List.nth spec.Spec.deals i).Spec.id
    in
    deal_action_attrs ~deal ~at (Action.to_string action)

(* Asset flow of an action: (debited party, credited party, asset).
   Notifications carry nothing. *)
let flow = function
  | Action.Do tr -> Some (tr.Action.source, tr.Action.target, tr.Action.asset)
  | Action.Undo tr -> Some (tr.Action.target, tr.Action.source, tr.Action.asset)
  | Action.Notify _ -> None

let run ?(config = default_config) ?(obs = Obs.null) ?(span = Obs.none) spec ~deposits ~behaviors =
  let action_attrs = action_attrs spec in
  let queue = Event_queue.create () in
  let holdings : (string, Asset.Bag.t) Hashtbl.t = Hashtbl.create 16 in
  let bag_of party =
    Option.value ~default:Asset.Bag.empty (Hashtbl.find_opt holdings (Party.name party))
  in
  let set_bag party bag = Hashtbl.replace holdings (Party.name party) bag in
  let behavior_of party =
    List.find_opt (fun b -> Party.equal (Behavior.party b) party) behaviors
  in
  List.iter
    (fun b ->
      let party = Behavior.party b in
      set_bag party (initial_endowment spec ~deposits party))
    behaviors;
  let state = ref State.empty in
  let log = ref [] in
  let pending : (Party.t * Action.t) list ref = ref [] in
  let events = ref 0 in
  let performed = ref 0 in
  (* Perform an action on behalf of its performer: debit now, deliver
     after the latency (or lose it in transit under fault injection —
     the asset silently returns to the sender). Insufficient assets park
     the action. *)
  let rec perform now party action =
    let dropped () =
      let seq = !performed in
      incr performed;
      match config.drop with
      | Some drop ->
        let lost = drop seq action in
        if lost && Obs.enabled obs then
          Obs.event obs span "drop" ~attrs:(("seq", Obs.Int seq) :: action_attrs ~at:now action);
        lost
      | None -> false
    in
    match flow action with
    | None -> if not (dropped ()) then
        Event_queue.push queue ~time:(now + config.latency) (Deliver action)
    | Some (debit, _credit, asset) -> (
      match Asset.Bag.remove asset (bag_of debit) with
      | Some rest ->
        set_bag debit rest;
        if dropped () then
          (* lost in transit: the courier returns it *)
          set_bag debit (Asset.Bag.add asset (bag_of debit))
        else Event_queue.push queue ~time:(now + config.latency) (Deliver action)
      | None ->
        if Obs.enabled obs then
          Obs.event obs span "park"
            ~attrs:(("party", Obs.Str (Party.name party)) :: action_attrs ~at:now action);
        pending := !pending @ [ (party, action) ])
  and retry_pending now party =
    let mine, others = List.partition (fun (p, _) -> Party.equal p party) !pending in
    pending := others;
    if mine <> [] && Obs.enabled obs then
      Obs.event obs span "retry"
        ~attrs:
          [ ("party", Obs.Str (Party.name party)); ("parked", Obs.Int (List.length mine));
            ("at", Obs.Int now) ];
    List.iter (fun (p, action) -> perform now p action) mine
  and observe now party obs =
    match behavior_of party with
    | None -> ()
    | Some b ->
      let reactions = Behavior.react b obs in
      List.iter (perform now party) reactions
  in
  (* Time zero: everyone starts; per-deal deadlines are armed. *)
  List.iter (fun b -> observe 0 (Behavior.party b) Behavior.Start) behaviors;
  List.iter
    (fun d ->
      match d.Spec.deadline with
      | Some dl -> Event_queue.push queue ~time:dl (Fire_expiry d.Spec.id)
      | None -> ())
    spec.Spec.deals;
  Event_queue.push queue ~time:config.deadline Fire_deadline;
  let rec drain () =
    if !events >= config.max_events then ()
    else
      match Event_queue.pop queue with
      | None -> ()
      | Some (now, Fire_expiry deal_id) ->
        incr events;
        if Obs.enabled obs then
          Obs.event obs span "expire"
            ~attrs:[ ("deal", Obs.Str deal_id); ("at", Obs.Int now) ];
        List.iter (fun b -> observe now (Behavior.party b) (Behavior.Expired deal_id)) behaviors;
        drain ()
      | Some (now, Fire_deadline) ->
        incr events;
        if Obs.enabled obs then Obs.event obs span "deadline" ~attrs:[ ("at", Obs.Int now) ];
        List.iter (fun b -> observe now (Behavior.party b) Behavior.Deadline) behaviors;
        drain ()
      | Some (now, Deliver action) ->
        incr events;
        if Obs.enabled obs then
          Obs.event obs span "deliver" ~attrs:(action_attrs ~at:now action);
        state := State.record action !state;
        log := { at = now; action } :: !log;
        (match flow action with
        | Some (_, credit, asset) ->
          set_bag credit (Asset.Bag.add asset (bag_of credit));
          retry_pending now credit
        | None -> ());
        (if config.broadcast then
           List.iter (fun b -> observe now (Behavior.party b) (Behavior.Incoming action)) behaviors
         else observe now (Action.beneficiary action) (Behavior.Incoming action));
        drain ()
  in
  drain ();
  {
    state = !state;
    log = List.rev !log;
    holdings = List.map (fun b -> let p = Behavior.party b in (p, bag_of p)) behaviors;
    stalled = !pending;
    events = !events;
  }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>simulation: %d events, %d deliveries, %d stalled" r.events
    (List.length r.log) (List.length r.stalled);
  List.iter (fun d -> Format.fprintf ppf "@,  t=%-4d %a" d.at Action.pp d.action) r.log;
  List.iter
    (fun (p, bag) -> Format.fprintf ppf "@,  final %s: %a" (Party.name p) Asset.Bag.pp bag)
    r.holdings;
  Format.fprintf ppf "@]"
