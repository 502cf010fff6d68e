open Exchange
module Protocol = Trust_core.Protocol
module Indemnity = Trust_core.Indemnity
module Feasibility = Trust_core.Feasibility
module Obs = Trust_obs.Obs

type mode = Lockstep | Distributed

type cast = {
  spec : Spec.t;
  plan : Indemnity.plan option;
  mode : mode;
  protocol : Protocol.t;
  behaviors : Behavior.t list;
}

type defection = Silent | Partial of int

let defectable_principals spec =
  let personas =
    Party.Map.fold (fun _ principal acc -> principal :: acc) spec.Spec.personas []
  in
  List.filter
    (fun p -> not (List.exists (Party.equal p) personas))
    (Spec.principals spec)

let deposit_actions plan =
  match plan with
  | None -> []
  | Some plan -> Indemnity.deposits plan

(* Distributed mode prepends unconditional deposits to each offerer's
   script; lockstep mode chains them through the protocol prologue. *)
let distributed_deposit_steps plan party =
  List.filter_map
    (fun action ->
      if Party.equal (Action.performer action) party then
        Some Protocol.{ condition = Now; action }
      else None)
    (deposit_actions plan)

(* Behaviours are single-run stateful machines, so anything that reuses
   a synthesized protocol (notably the serve-layer protocol cache) must
   rebuild them per run; [assemble] shares this constructor. [split_spec]
   is the spec the protocol was synthesized from, i.e. after the plan's
   indemnity splits were applied. *)
let behaviors_for ?(shared = false) ?plan ?(defectors = []) ~mode split_spec protocol =
  let offers = match plan with Some p -> p.Indemnity.offers | None -> [] in
  let defection_of party =
    List.find_map
      (fun (p, d) -> if Party.equal p party then Some d else None)
      defectors
  in
  let principal_behavior party =
    let script =
      match mode with
      | Lockstep -> Protocol.script_of protocol party
      | Distributed -> distributed_deposit_steps plan party @ Protocol.script_of protocol party
    in
    let plays_a_role =
      Party.Map.exists (fun _ p -> Party.equal p party) split_spec.Spec.personas
    in
    let add_duties inner =
      if plays_a_role then Behavior.with_persona_duties split_spec party inner else inner
    in
    match defection_of party with
    | None -> add_duties (Behavior.scripted party script)
    | Some Silent -> Behavior.silent party
    | Some (Partial keep) -> Behavior.partial party script ~keep
  in
  let trusted_behavior party =
    match Spec.persona_of split_spec party with
    | Some _ -> None (* the persona principal acts; no separate agent *)
    | None ->
      let notifies =
        List.filter
          (fun step ->
            match step.Protocol.action with Action.Notify _ -> true | _ -> false)
          (Protocol.script_of protocol party)
      in
      (* Atomic when it coordinates a bundle (§9 / Rule #3), or — in
         the paper's monolithic reading, i.e. without [shared] — for
         any multi-deal agent, whose single conjunction makes its
         deals all-or-nothing by definition. *)
      let coordinates =
        List.exists
          (fun (_, agent) -> Party.equal agent party)
          (Trust_core.Sequencing.coordinated_bundles split_spec)
      in
      let mediates =
        List.length (List.filter (fun d -> Party.equal d.Spec.via party) split_spec.Spec.deals)
      in
      let atomic = coordinates || ((not shared) && mediates > 1) in
      Some (Behavior.escrow ~atomic split_spec party ~notifies ~indemnities:offers)
  in
  List.map principal_behavior (Spec.principals split_spec)
  @ List.filter_map trusted_behavior (Spec.trusted_agents split_spec)

let assemble ?(obs = Obs.null) ?parent ?(mode = Lockstep) ?(shared = false) ?plan
    ?(defectors = []) spec =
  Obs.with_span obs ?parent ~phase:"route" "route.assemble" (fun h ->
  let split_spec =
    match plan with Some plan -> Indemnity.apply plan spec | None -> spec
  in
  let analysis = Feasibility.analyze ~shared split_spec in
  let outcome =
    match analysis.Feasibility.sequence with
    | None -> Error "infeasible: no protocol can be synthesized"
    | Some sequence -> (
      (* Independent safety pass (§5 protection invariant) over every
         sequence we are about to hand to behaviours: the synthesizer is
         never its own witness. *)
      match Trust_analyze.Verifier.verify sequence with
      | Error exposures ->
        Error
          (Printf.sprintf "unsafe execution sequence:\n%s"
             (Trust_analyze.Verifier.explain exposures))
      | Ok () ->
      let protocol =
        match mode with
        | Lockstep -> Protocol.synthesize_lockstep ~prologue:(deposit_actions plan) sequence
        | Distributed -> Protocol.synthesize sequence
      in
      let behaviors = behaviors_for ~shared ?plan ~defectors ~mode split_spec protocol in
      Ok { spec = split_spec; plan; mode; protocol; behaviors })
  in
  if Obs.enabled obs then begin
    Obs.attr obs h "mode"
      (Obs.Str (match mode with Lockstep -> "lockstep" | Distributed -> "distributed"));
    match outcome with
    | Ok cast ->
      Obs.attr obs h "behaviors" (Obs.Int (List.length cast.behaviors));
      Obs.attr obs h "indemnified" (Obs.Bool (cast.plan <> None))
    | Error reason ->
      Obs.attr obs h "error" (Obs.Str reason)
  end;
  outcome)

let config_for cast config =
  let base = Option.value ~default:Engine.default_config config in
  match cast.mode with
  | Lockstep -> { base with Engine.broadcast = true }
  | Distributed -> base

let simulate_attrs obs h ~events ~deliveries ~stalled ~peak_at_risk ~peak_escrow =
  Obs.attr obs h "events" (Obs.Int events);
  Obs.attr obs h "deliveries" (Obs.Int deliveries);
  Obs.attr obs h "stalled" (Obs.Int stalled);
  Obs.attr obs h "exposure_peak_at_risk" (Obs.Int peak_at_risk);
  Obs.attr obs h "exposure_peak_escrow" (Obs.Int peak_escrow)

let run_cast ?config ?(obs = Obs.null) ?parent cast =
  let deposits = match cast.plan with Some p -> p.Indemnity.offers | None -> [] in
  Obs.with_span obs ?parent ~phase:"simulate" "simulate" (fun h ->
      let result =
        Engine.run ~config:(config_for cast config) ~obs ~span:h cast.spec ~deposits
          ~behaviors:cast.behaviors
      in
      if Obs.enabled obs then begin
        (* the exposure peaks do not depend on who defected *)
        let x = Exposure.of_result ?plan:cast.plan cast.spec result in
        simulate_attrs obs h ~events:result.Engine.events
          ~deliveries:(List.length result.Engine.log)
          ~stalled:(List.length result.Engine.stalled)
          ~peak_at_risk:(Exposure.total_peak_at_risk x) ~peak_escrow:(Exposure.total_peak_escrow x)
      end;
      result)

let honest_run ?config ?obs ?parent ?mode ?shared ?plan spec =
  Result.map (run_cast ?config ?obs ?parent) (assemble ?obs ?parent ?mode ?shared ?plan spec)

let adversarial_run ?config ?obs ?parent ?mode ?shared ?plan ~defectors spec =
  Result.map
    (run_cast ?config ?obs ?parent)
    (assemble ?obs ?parent ?mode ?shared ?plan ?defectors:(Some defectors) spec)

(* §8's universal-intermediary protocol (see the interface). *)
let universal_run ?config ?(defectors = []) spec =
  let uni = Trust_core.Cost.with_universal_intermediary spec in
  let star =
    match Spec.trusted_agents uni with
    | [ star ] -> star
    | _ -> invalid_arg "universal_run: transform must yield a single agent"
  in
  let defection_of party =
    List.find_map (fun (p, d) -> if Party.equal p party then Some d else None) defectors
  in
  let script_for party =
    List.filter_map
      (fun (cref, d) ->
        if not (Party.equal (Spec.commitment_principal d cref.Spec.side) party) then None
        else begin
          let asset = Spec.commitment_sends d cref.Spec.side in
          let deposit = Action.Do Action.{ source = party; target = star; asset } in
          let endowed =
            match asset with
            | Asset.Money _ -> true
            | Asset.Document _ ->
              not
                (List.exists
                   (fun (cref', d') ->
                     Party.equal (Spec.commitment_principal d' cref'.Spec.side) party
                     && Asset.equal (Spec.commitment_expects d' cref'.Spec.side) asset)
                   (Spec.commitments uni))
          in
          let condition =
            if endowed then Protocol.Now
            else
              Protocol.Observed
                (Action.Do Action.{ source = star; target = party; asset })
          in
          Some Protocol.{ condition; action = deposit }
        end)
      (Spec.commitments uni)
  in
  let principal_behavior party =
    match defection_of party with
    | None -> Behavior.scripted party (script_for party)
    | Some Silent -> Behavior.silent party
    | Some (Partial keep) -> Behavior.partial party (script_for party) ~keep
  in
  let behaviors =
    List.map principal_behavior (Spec.principals uni) @ [ Behavior.coordinator uni star ]
  in
  (Engine.run ?config uni ~deposits:[] ~behaviors, uni)

let pp_cast ppf cast =
  Format.fprintf ppf "@[<v>cast over %d behaviours@,%a@]" (List.length cast.behaviors)
    Protocol.pp cast.protocol
