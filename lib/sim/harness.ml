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

let defectable_principals = Spec.defectable_principals

let injected_defectors ~every id spec =
  if every > 0 && (id + 1) mod every = 0 then
    match defectable_principals spec with party :: _ -> [ (party, Silent) ] | [] -> []
  else []

let deposit_actions plan =
  match plan with
  | None -> []
  | Some plan -> Indemnity.deposits plan

(* Behaviours are single-run stateful machines, so anything that reuses
   a synthesized protocol (notably the serve-layer protocol cache) must
   rebuild them per run; [assemble] shares this constructor. [split_spec]
   is the spec the protocol was synthesized from, i.e. after the plan's
   indemnity splits were applied. *)
let behaviors_for ?shared ?plan ?(defectors = []) ~mode split_spec protocol =
  let defection_of party =
    List.find_map
      (fun (p, d) -> if Party.equal p party then Some d else None)
      defectors
  in
  let behavior (party, role) =
    match role with
    | Protocol.Principal { script; persona } -> (
      match defection_of party with
      | None ->
        let honest = Behavior.scripted party script in
        if persona = [] then honest else Behavior.with_persona_duties party persona honest
      | Some Silent -> Behavior.silent party
      | Some (Partial keep) -> Behavior.partial party script ~keep)
    | Protocol.Agent { notifies; deals; deposits; atomic } ->
      Behavior.escrow ~atomic split_spec party ~notifies ~deals ~deposits
  in
  List.map behavior
    (Protocol.role_table ?shared ?plan ~lockstep:(mode = Lockstep) split_spec protocol)

(* Every sequence about to become a protocol first passes the
   independent §5 verifier: the synthesizer is never its own witness. *)
let protocol_of ?(mode = Lockstep) (s : Feasibility.synthesis) =
  match s.Feasibility.analysis.Feasibility.sequence with
  | None -> Error "infeasible: no protocol can be synthesized"
  | Some sequence -> (
    match (Trust_analyze.Verifier.verify sequence, mode) with
    | Error exposures, _ ->
      Error
        (Printf.sprintf "unsafe execution sequence:\n%s"
           (Trust_analyze.Verifier.explain exposures))
    | Ok (), Lockstep ->
      Ok (Protocol.synthesize_lockstep ~prologue:(deposit_actions s.Feasibility.plan) sequence)
    | Ok (), Distributed -> Ok (Protocol.synthesize sequence))

let cast_of ?(obs = Obs.null) ?parent ?(mode = Lockstep) ?(defectors = [])
    (s : Feasibility.synthesis) =
  Obs.with_span obs ?parent ~phase:"route" "route.assemble" (fun h ->
  let plan = s.Feasibility.plan and analysis = s.Feasibility.analysis in
  let spec = analysis.Feasibility.spec and shared = analysis.Feasibility.shared in
  let outcome =
    Result.map
      (fun protocol ->
        let behaviors = behaviors_for ~shared ?plan ~defectors ~mode spec protocol in
        { spec; plan; mode; protocol; behaviors })
      (protocol_of ~mode s)
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

let assemble ?obs ?parent ?mode ?shared ?plan ?defectors spec =
  let split_spec = Option.fold ~none:spec ~some:(fun p -> Indemnity.apply p spec) plan in
  cast_of ?obs ?parent ?mode ?defectors
    { Feasibility.plan; analysis = Feasibility.analyze ?shared split_spec }

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
    List.map
      (fun (cref, d) ->
        let deposit = Spec.commit_transfer uni d cref.Spec.side in
        let condition =
          if Spec.endowed uni d cref.Spec.side then Protocol.Now
          else Protocol.Observed (Action.Do { deposit with source = star; target = party })
        in
        Protocol.{ condition; action = Action.Do deposit })
      (Spec.own_sides uni party)
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
