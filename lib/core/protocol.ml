open Exchange

type condition = Now | Observed of Action.t

type scripted_step = { condition : condition; action : Action.t }

type t = { spec : Spec.t; roles : (Party.t * scripted_step list) list }

let observes party action =
  Party.equal (Action.beneficiary action) party || Party.equal (Action.performer action) party

(* The trigger rule, one forward pass: each action waits for the latest
   earlier action its performer observes as beneficiary, excluding the
   performer's own earlier actions (local order already covers those);
   [Now] when nothing observable precedes it. *)
let triggers actions =
  let latest = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc action ->
         let performer = Action.performer action in
         let condition =
           match Hashtbl.find_opt latest performer with Some a -> Observed a | None -> Now
         in
         let beneficiary = Action.beneficiary action in
         if not (Party.equal beneficiary performer) then Hashtbl.replace latest beneficiary action;
         condition :: acc)
       [] actions)

(* Each party of the spec that acts, with its steps in sequence order. *)
let roles_of spec steps =
  let mine = Hashtbl.create 16 in
  List.iter
    (fun step ->
      let performer = Action.performer step.action in
      Hashtbl.replace mine performer
        (step :: Option.value ~default:[] (Hashtbl.find_opt mine performer)))
    steps;
  List.filter_map
    (fun party ->
      match Hashtbl.find_opt mine party with
      | Some rev_steps -> Some (party, List.rev rev_steps)
      | None -> None)
    (Spec.parties spec)

let synthesize (sequence : Execution.sequence) =
  let actions = Execution.actions sequence in
  let steps =
    List.map2 (fun condition action -> { condition; action }) (triggers actions) actions
  in
  let spec = sequence.Execution.spec in
  { spec; roles = roles_of spec steps }

(* Steps that must not be serialized across independent branches: a
   deferred red delivery waits only for the goods it ships (its branch),
   and a persona forward waits only for the payment that secures it —
   otherwise one withheld delivery would stall every other branch's
   deliveries and unfairly trip their deposit forfeits at the deadline. *)
let branch_local spec (step : Execution.step) =
  match step.Execution.origin with
  | Execution.Commit cref -> (
    match Spec.find_deal spec cref.Spec.deal with
    | None -> false
    | Some d ->
      let principal = Spec.commitment_principal d cref.Spec.side in
      List.exists
        (fun owner ->
          Spec.is_priority spec owner cref && not (Spec.is_split spec owner cref))
        [ principal; d.Spec.via ])
  | Execution.Forward deal -> (
    match Spec.find_deal spec deal with
    | None -> false
    | Some d -> Spec.persona_of spec d.Spec.via <> None)
  | Execution.Notification _ -> false

let synthesize_lockstep ?(prologue = []) (sequence : Execution.sequence) =
  let spec = sequence.Execution.spec in
  let steps_in_order =
    List.map (fun action -> (action, false)) prologue
    @ List.map (fun s -> (s.Execution.action, branch_local spec s)) sequence.Execution.steps
  in
  (* every action waits for the delivery of its global predecessor,
     except a branch-local one, which waits for its trigger *)
  let _, rev_steps =
    List.fold_left2
      (fun (previous, acc) (action, local) trigger ->
        let condition =
          match previous with
          | None -> Now
          | Some prev -> if local then trigger else Observed prev
        in
        (Some action, { condition; action } :: acc))
      (None, []) steps_in_order
      (triggers (List.map fst steps_in_order))
  in
  { spec; roles = roles_of spec (List.rev rev_steps) }

let script_of t party =
  match List.find_opt (fun (p, _) -> Party.equal p party) t.roles with
  | Some (_, steps) -> steps
  | None -> []

type persona_deal = { deal : Spec.deal; incoming : Action.transfer; forward : Action.transfer }

type role =
  | Principal of { script : scripted_step list; persona : persona_deal list }
  | Agent of {
      notifies : scripted_step list;
      deals : Spec.deal list;
      deposits : Indemnity.offer list;
      atomic : bool;
    }

(* [xs] grouped by [key], each group in source order, as a lookup. *)
let group key xs =
  match xs with
  | [] -> fun _ -> []
  | _ ->
    let tbl = Party.Tbl.create 16 in
    (* [find_all] returns the latest binding first *)
    List.iter (fun x -> Party.Tbl.add tbl (key x) x) (List.rev xs);
    Party.Tbl.find_all tbl

(* One pass over the offers, the scripts and the deals groups what each
   party needs, so the table costs time linear in the spec. *)
let role_table ?(shared = false) ?plan ~lockstep spec t =
  let offers = match plan with Some p -> p.Indemnity.offers | None -> [] in
  let atomic = Sequencing.atomic_escrow ~shared spec in
  let offered_by = group (fun o -> o.Indemnity.offered_by) offers in
  let held_by = group (fun o -> o.Indemnity.via) offers in
  (* the first script of a party wins, as in [script_of] *)
  let scripts = group fst t.roles in
  let script party = match scripts party with (_, steps) :: _ -> steps | [] -> [] in
  (* the deals each principal mediates as a persona *)
  let mediates =
    group fst
      (List.filter_map
         (fun d -> Option.map (fun p -> (p, d)) (Spec.persona_of spec d.Spec.via))
         spec.Spec.deals)
  in
  (* Distributed mode prepends unconditional deposits to each offerer's
     script; lockstep mode chains them through the protocol prologue. *)
  let deposit_step o = { condition = Now; action = Action.Do (Indemnity.deposit_transfer o) } in
  let principal party =
    let script =
      if lockstep then script party else List.map deposit_step (offered_by party) @ script party
    in
    let persona =
      List.map
        (fun d ->
          let incoming, forward = Spec.persona_transfers spec d party in
          { deal = d; incoming; forward })
        (List.map snd (mediates party))
    in
    (party, Principal { script; persona })
  in
  let agent party =
    match Spec.persona_of spec party with
    | Some _ -> None (* the persona principal acts; no separate agent *)
    | None ->
      let notifies =
        List.filter
          (fun s -> match s.action with Action.Notify _ -> true | _ -> false)
          (script party)
      in
      Some
        ( party,
          Agent
            {
              notifies;
              deals = Spec.mediated_by spec party;
              deposits = held_by party;
              atomic = atomic party;
            } )
  in
  List.map principal (Spec.principals spec) @ List.filter_map agent (Spec.trusted_agents spec)

let equal_condition a b =
  match (a, b) with
  | Now, Now -> true
  | Observed x, Observed y -> Action.equal x y
  | (Now | Observed _), _ -> false

let equal_step a b = equal_condition a.condition b.condition && Action.equal a.action b.action

let equal_roles a b =
  List.length a.roles = List.length b.roles
  && List.for_all2
       (fun (pa, sa) (pb, sb) ->
         Party.equal pa pb
         && List.length sa = List.length sb
         && List.for_all2 equal_step sa sb)
       a.roles b.roles

let pp_condition ppf = function
  | Now -> Format.pp_print_string ppf "now"
  | Observed a -> Format.fprintf ppf "after %a" Action.pp a

let pp ppf t =
  Format.fprintf ppf "@[<v>protocol:";
  List.iter
    (fun (party, steps) ->
      Format.fprintf ppf "@,  %a:" Party.pp party;
      List.iter
        (fun s -> Format.fprintf ppf "@,    [%a] %a" pp_condition s.condition Action.pp s.action)
        steps)
    t.roles;
  Format.fprintf ppf "@]"
