open Exchange

type origin =
  | Commit of Spec.commitment_ref
  | Forward of string
  | Notification of Party.t

type step = { index : int; action : Action.t; origin : origin }

type sequence = { spec : Spec.t; steps : step list }

(* Events derived from the deletion log, still unexpanded. *)
type event =
  | E_commit of Sequencing.commitment
  | E_notify of Party.t * Party.t  (* conjunction owner (trusted role), informed principal *)

let deal_of spec cref =
  match Spec.find_deal spec cref.Spec.deal with
  | Some d -> d
  | None -> invalid_arg "Execution: dangling commitment reference"

(* A commitment is deferred when any of its original conjunction edges
   was red (§5: "deferring any commitment nodes connected to their
   conjunction nodes with a red edge"). *)
let is_red_commitment spec (c : Sequencing.commitment) =
  let owners = [ c.Sequencing.principal; c.Sequencing.agent ] in
  List.exists
    (fun owner ->
      Spec.is_priority spec owner c.Sequencing.cref
      && not (Spec.is_split spec owner c.Sequencing.cref))
    owners

let events_of_outcome (outcome : Reduce.outcome) =
  let g = outcome.Reduce.graph in
  let spec = Sequencing.spec g in
  (* Commitments that had no edges to begin with are committed up front:
     nothing constrains them. *)
  let deleted_cids = List.map (fun d -> d.Reduce.cid) outcome.Reduce.deletions in
  let initial =
    Array.to_list (Sequencing.commitments g)
    |> List.filter (fun c ->
           (not (List.mem c.Sequencing.cid deleted_cids))
           && Sequencing.is_disconnected_commitment g c.Sequencing.cid)
    |> List.map (fun c -> E_commit c)
  in
  let of_deletion (d : Reduce.deletion) =
    let conj = Sequencing.conjunction g d.Reduce.jid in
    let commitment = Sequencing.commitment g d.Reduce.cid in
    let notifies =
      if d.Reduce.conjunction_disconnected && Party.is_trusted conj.Sequencing.owner then
        [ E_notify (conj.Sequencing.owner, commitment.Sequencing.principal) ]
      else []
    in
    let commits = if d.Reduce.commitment_disconnected then [ E_commit commitment ] else [] in
    notifies @ commits
  in
  (spec, initial @ List.concat_map of_deletion outcome.Reduce.deletions)

(* Among the deferred red commitments, a broker can only ship a document
   another deferred deal supplies it with (through that deal's forward),
   so the deferred block is topologically ordered by document flow:
   supplier deals execute before the resales that consume them. *)
let order_deferred spec deferred =
  match deferred with
  | [] | [ _ ] -> deferred
  | deferred ->
    let arr = Array.of_list deferred in
    let n = Array.length arr in
    let info = function
      | E_commit c ->
        let d = deal_of spec c.Sequencing.cref in
        Some (c.Sequencing.principal, d, Spec.commitment_sends d c.Sequencing.cref.Spec.side)
      | E_notify _ -> None
    in
    let supplies j i =
      (* event j's deal hands event i's principal the document it ships *)
      match (info arr.(i), info arr.(j)) with
      | Some (pi, _, (Asset.Document _ as doc)), Some (_, dj, _) ->
        List.exists
          (fun side ->
            Party.equal (Spec.commitment_principal dj side) pi
            && Asset.equal (Spec.commitment_expects dj side) doc)
          [ Spec.Left; Spec.Right ]
      | _, _ -> false
    in
    let g = Trust_graph.Digraph.create ~initial_capacity:n () in
    let _ = Trust_graph.Digraph.add_nodes g n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && supplies j i then Trust_graph.Digraph.add_edge g j i
      done
    done;
    (match Trust_graph.Digraph.topological_sort g with
    | Some order -> List.map (fun i -> arr.(i)) order
    | None -> deferred)

(* Stable partition: black-commitment and notification events keep their
   order; red commitments move to the back (§5). *)
let defer_reds spec events =
  let is_deferred = function
    | E_commit c -> is_red_commitment spec c
    | E_notify _ -> false
  in
  let front, back = List.partition (fun e -> not (is_deferred e)) events in
  front @ order_deferred spec back

let forward_transfers spec (d : Spec.deal) =
  let agent = Spec.effective_agent spec d in
  let to_left = Action.{ source = agent; target = d.Spec.left; asset = d.Spec.right_sends } in
  let to_right = Action.{ source = agent; target = d.Spec.right; asset = d.Spec.left_sends } in
  (* Documents forwarded before payments — this is what puts "Trusted2
     sends document to Broker" before "Trusted2 sends money to Producer"
     in the paper's worked Example #1 sequence. *)
  let docs, money =
    List.partition (fun tr -> Asset.is_document tr.Action.asset) [ to_left; to_right ]
  in
  docs @ money

let real_transfer tr = not (Party.equal tr.Action.source tr.Action.target)

type guard = Persona_secured of Party.t | Agent_complete of Party.t

let expand spec events =
  (* escrow: which sides of each deal the intermediary has received *)
  let escrow : (string, Spec.side list) Hashtbl.t = Hashtbl.create 16 in
  let completed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let steps = ref [] and index = ref 0 in
  (* Some forwards are held back:
     - a persona-mediated deal's, until the persona principal is
       {e secured} — every deal it participates in has both sides
       committed. The persona holds both sides of its own deal, so
       §2.5's reversal guarantee lets the irrevocable outbound transfer
       wait exactly that long (otherwise the §4.2.3 variant-1 broker
       would pay its source before securing the customer), and no longer
       (the source must be paid the moment the broker's resale is safe);
     - a multi-deal agent's, until {e all} its deals are in — the §8
       coordinated-transaction semantics the atomic escrow implements,
       which keeps shared-agent bundles all-or-nothing. *)
  let pending : (string * guard * Action.transfer list) list ref = ref [] in
  let emit origin action =
    incr index;
    steps := { index = !index; action; origin } :: !steps
  in
  let secured persona =
    List.for_all
      (fun (d : Spec.deal) ->
        (not (Party.equal d.Spec.left persona || Party.equal d.Spec.right persona))
        || Hashtbl.mem completed d.Spec.id)
      spec.Spec.deals
  in
  let agent_done agent =
    List.for_all
      (fun (d : Spec.deal) ->
        (not (Party.equal d.Spec.via agent)) || Hashtbl.mem completed d.Spec.id)
      spec.Spec.deals
  in
  let guard_open = function
    | Persona_secured p -> secured p
    | Agent_complete t -> agent_done t
  in
  let rec flush_secured () =
    let ready, waiting = List.partition (fun (_, g, _) -> guard_open g) !pending in
    pending := waiting;
    if ready <> [] then begin
      List.iter
        (fun (id, _, transfers) ->
          List.iter (fun tr -> emit (Forward id) (Action.Do tr)) transfers)
        ready;
      flush_secured ()
    end
  in
  let commit (c : Sequencing.commitment) =
    let cref = c.Sequencing.cref in
    let d = deal_of spec cref in
    let principal = c.Sequencing.principal in
    let agent = Spec.effective_agent spec d in
    let transfer =
      Action.{ source = principal; target = agent; asset = Spec.commitment_sends d cref.Spec.side }
    in
    if real_transfer transfer then emit (Commit cref) (Action.Do transfer);
    let sides = Option.value ~default:[] (Hashtbl.find_opt escrow d.Spec.id) in
    let sides = if List.mem cref.Spec.side sides then sides else cref.Spec.side :: sides in
    Hashtbl.replace escrow d.Spec.id sides;
    if List.length sides = 2 then begin
      Hashtbl.replace completed d.Spec.id ();
      let forwards = List.filter real_transfer (forward_transfers spec d) in
      let mediates =
        List.length (List.filter (fun d' -> Party.equal d'.Spec.via d.Spec.via) spec.Spec.deals)
      in
      (match Spec.persona_of spec d.Spec.via with
      | Some persona ->
        pending := !pending @ [ (d.Spec.id, Persona_secured persona, forwards) ]
      | None when mediates > 1 ->
        pending := !pending @ [ (d.Spec.id, Agent_complete d.Spec.via, forwards) ]
      | None -> List.iter (fun tr -> emit (Forward d.Spec.id) (Action.Do tr)) forwards);
      flush_secured ()
    end
  in
  let notify owner informed =
    let agent =
      match Spec.persona_of spec owner with Some principal -> principal | None -> owner
    in
    if not (Party.equal agent informed) then
      emit (Notification owner) (Action.notify ~agent ~informed)
  in
  List.iter
    (function
      | E_commit c -> commit c
      | E_notify (owner, informed) -> notify owner informed)
    events;
  (* Fallback: anything still pending is flushed unconditionally. *)
  List.iter
    (fun (id, _, transfers) ->
      List.iter (fun tr -> emit (Forward id) (Action.Do tr)) transfers)
    !pending;
  List.rev !steps

let of_outcome (outcome : Reduce.outcome) =
  match outcome.Reduce.verdict with
  | Reduce.Stuck _ -> Error "execution sequence requires a feasible reduction"
  | Reduce.Feasible ->
    let spec, events = events_of_outcome outcome in
    let steps = expand spec (defer_reds spec events) in
    Ok { spec; steps }

let actions sequence = List.map (fun s -> s.action) sequence.steps

let final_state sequence = State.of_actions (actions sequence)

let message_count sequence = List.length sequence.steps

let check_physical sequence =
  let spec = sequence.spec in
  let holdings : (string, Asset.Bag.t) Hashtbl.t = Hashtbl.create 16 in
  let bag_of party = Option.value ~default:Asset.Bag.empty (Hashtbl.find_opt holdings (Party.name party)) in
  let set_bag party bag = Hashtbl.replace holdings (Party.name party) bag in
  (* Endow principals (§2.4). *)
  List.iter
    (fun p ->
      List.iter (fun asset -> set_bag p (Asset.Bag.add asset (bag_of p))) (Spec.endowment spec p))
    (Spec.principals spec);
  let move source target asset =
    match Asset.Bag.remove asset (bag_of source) with
    | None ->
      Error
        (Format.asprintf "%s sends %a it does not hold" (Party.name source) Asset.pp asset)
    | Some rest ->
      set_bag source rest;
      set_bag target (Asset.Bag.add asset (bag_of target));
      Ok ()
  in
  let run_step acc step =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
      match step.action with
      | Action.Do tr -> move tr.Action.source tr.Action.target tr.Action.asset
      | Action.Undo tr -> move tr.Action.target tr.Action.source tr.Action.asset
      | Action.Notify _ -> Ok ())
  in
  List.fold_left run_step (Ok ()) sequence.steps

let all_parties_acceptable sequence =
  let state = final_state sequence in
  List.map
    (fun party -> (party, Outcomes.acceptable sequence.spec ~party state))
    (Spec.parties sequence.spec)

let pp_origin ppf = function
  | Commit cref -> Format.fprintf ppf "commit %a" Spec.pp_ref cref
  | Forward deal -> Format.fprintf ppf "forward %s" deal
  | Notification owner -> Format.fprintf ppf "conjunction %s" (Party.name owner)

let pp_step ppf step =
  Format.fprintf ppf "%2d. %a  (%a)" step.index Action.pp step.action pp_origin step.origin

let pp ppf sequence =
  Format.fprintf ppf "@[<v>execution sequence (%d steps):@,%a@]" (message_count sequence)
    (Format.pp_print_list pp_step) sequence.steps
