module Obs = Trust_obs.Obs

type rule = Rule1 | Rule1_persona | Rule2 | Rule3_shared

type deletion = {
  step : int;
  rule : rule;
  cid : int;
  jid : int;
  colour : Sequencing.colour;
  commitment_disconnected : bool;
  conjunction_disconnected : bool;
}

type verdict = Feasible | Stuck of { remaining : (int * int * Sequencing.colour) list }

type outcome = { verdict : verdict; deletions : deletion list; graph : Sequencing.t }

(* Rule #3 (extension, see the interface): [coordinated] marks the
   bundle conjunctions one agent coordinates atomically — see
   {!Sequencing.coordinated_bundles} for the eligibility conditions —
   and their edges are the candidates. *)
let coordinated g =
  let owners = List.map fst (Sequencing.coordinated_bundles (Sequencing.spec g)) in
  Array.init (Sequencing.conjunction_count g) (fun jid ->
      List.exists (Exchange.Party.equal (Sequencing.conjunction g jid).Sequencing.owner) owners)

let apply g ~step (rule, cid, jid) =
  let colour =
    match Sequencing.edge_colour g ~cid ~jid with
    | Some colour -> colour
    | None -> invalid_arg "Reduce.apply: edge not present"
  in
  Sequencing.remove_edge g ~cid ~jid;
  {
    step;
    rule;
    cid;
    jid;
    colour;
    commitment_disconnected = Sequencing.is_disconnected_commitment g cid;
    conjunction_disconnected = Sequencing.is_disconnected_conjunction g jid;
  }

let finish g deletions =
  let verdict =
    if Sequencing.fully_reduced g then Feasible
    else
      let remaining =
        List.concat
          (List.map
             (fun c ->
               List.map
                 (fun (jid, colour) -> (c.Sequencing.cid, jid, colour))
                 (Sequencing.edges_of_commitment g c.Sequencing.cid))
             (Array.to_list (Sequencing.commitments g)))
      in
      Stuck { remaining }
  in
  { verdict; deletions = List.rev deletions; graph = g }

(* Reduction telemetry: one "delete" event per rule application (the
   deletion timeline) and per-rule counters on the reduce span. All
   values are virtual (steps, node ids), so traces stay deterministic. *)

let pp_rule_name rule =
  match rule with
  | Rule1 -> "rule1"
  | Rule1_persona -> "rule1_persona"
  | Rule2 -> "rule2"
  | Rule3_shared -> "rule3_shared"

let record_deletion obs h g (d : deletion) =
  if Obs.enabled obs then
    Obs.event obs h "delete"
      ~attrs:
        [
          ("step", Obs.Int d.step);
          ("rule", Obs.Str (pp_rule_name d.rule));
          ("cid", Obs.Int d.cid);
          ("jid", Obs.Int d.jid);
          ("colour", Obs.Str (Format.asprintf "%a" Sequencing.pp_colour d.colour));
          ("owner", Obs.Str (Exchange.Party.name (Sequencing.conjunction g d.jid).Sequencing.owner));
        ]

let record_outcome obs h ~pushes outcome =
  if Obs.enabled obs then begin
    let count r = List.length (List.filter (fun d -> d.rule = r) outcome.deletions) in
    Obs.attr obs h "steps" (Obs.Int (List.length outcome.deletions));
    Obs.attr obs h "rule1" (Obs.Int (count Rule1));
    Obs.attr obs h "rule1_persona" (Obs.Int (count Rule1_persona));
    Obs.attr obs h "rule2" (Obs.Int (count Rule2));
    Obs.attr obs h "rule3_shared" (Obs.Int (count Rule3_shared));
    Obs.attr obs h "worklist_pushes" (Obs.Int pushes);
    match outcome.verdict with
    | Feasible -> Obs.attr obs h "verdict" (Obs.Str "feasible")
    | Stuck { remaining } ->
      Obs.attr obs h "verdict" (Obs.Str "stuck");
      Obs.attr obs h "remaining" (Obs.Int (List.length remaining))
  end

(* Static, per commitment: whether its principal is external (owns no
   conjunction). Nodes never disappear, only edges do. *)
let external_principals g =
  let owners =
    Array.fold_left
      (fun owners j -> Exchange.Party.Set.add j.Sequencing.owner owners)
      Exchange.Party.Set.empty (Sequencing.conjunctions g)
  in
  Array.init (Sequencing.commitment_count g) (fun cid ->
      not (Exchange.Party.Set.mem (Sequencing.commitment g cid).Sequencing.principal owners))

(* Deterministic priority: Rule #2 first (conjunction disconnects —
   notifications — fire as soon as enabled); then Rule #1 with
   commitments of *external* principals (parties with no conjunction of
   their own) before conjunction members, each group in index order;
   then (shared policy only) Rule #3. Externals-first means unentangled
   parties deposit before a bundle owner is asked to commit anything —
   the order the paper's walkthrough follows, and the one that keeps
   bundle buyers safe at run time.

   Incremental reduction: a deletion of edge (c, j) can only enable
   Rule #2 at j, Rule #1 at c (if it keeps another edge) and Rule #1 at
   j's other commitments (whose pre-empting red edge may just have
   vanished). Everything else is untouched, so after each deletion only
   those nodes are re-examined — no rescans. Candidates live in ordered
   sets, one per priority group: Rule #2 conjunctions by index, Rule #1
   commitments with external principals by index, the remaining Rule #1
   commitments, Rule #3 conjunctions by index. Picking the minimum of
   the first non-empty set reproduces a rescanning reducer's deletion
   sequence edge for edge (the paper's Example #1 walkthrough), which
   the tests pin against a rescanning oracle. Near-linear instead of
   quadratic, it is the only synthesis path. *)
module Int_set = Set.Make (Int)

let run ?(shared = false) ?(obs = Obs.null) ?parent g =
  Obs.with_span obs ?parent ~phase:"reduce" "reduce.worklist" (fun obs_span ->
  let pushes = ref 0 in
  (* profiler hook, not control flow: a push is an insertion into one of
     the candidate sets; counted only when a trace is attached *)
  let note_push set elt = if Obs.enabled obs && not (Int_set.mem elt !set) then incr pushes in
  let ncom = Sequencing.commitment_count g in
  let external_principal = external_principals g in
  let rule2 = ref Int_set.empty in
  let rule1_external = ref Int_set.empty and rule1_internal = ref Int_set.empty in
  (* Which Rule #1 clause admitted the commitment, kept alongside the
     sets so picking does not re-derive it. *)
  let clause = Array.make (max 1 ncom) Rule1 in
  (* Rule #3 (shared policy only): which conjunctions one agent
     coordinates is static, so eligibility is tabled once; the set holds
     the eligible conjunctions that still have an edge. *)
  let rule3 = if shared then Some (coordinated g, ref Int_set.empty) else None in
  let refresh_conjunction jid =
    let edges = Sequencing.edges_of_conjunction g jid in
    (match edges with
    | [ _ ] ->
      note_push rule2 jid;
      rule2 := Int_set.add jid !rule2
    | _ -> rule2 := Int_set.remove jid !rule2);
    match rule3 with
    | Some (eligible, set) when eligible.(jid) -> (
      match edges with
      | [] -> set := Int_set.remove jid !set
      | _ ->
        note_push set jid;
        set := Int_set.add jid !set)
    | Some _ | None -> ()
  in
  let refresh_commitment cid =
    let admitted =
      match Sequencing.edges_of_commitment g cid with
      | [ (jid, _) ] -> (
        match Sequencing.red_sibling g ~cid ~jid with
        | None -> Some Rule1
        | Some _ when Sequencing.plays_own_agent g cid -> Some Rule1_persona
        | Some _ -> None)
      | _ -> None
    in
    match admitted with
    | Some rule ->
      clause.(cid) <- rule;
      if external_principal.(cid) then begin
        note_push rule1_external cid;
        rule1_external := Int_set.add cid !rule1_external
      end
      else begin
        note_push rule1_internal cid;
        rule1_internal := Int_set.add cid !rule1_internal
      end
    | None ->
      if external_principal.(cid) then rule1_external := Int_set.remove cid !rule1_external
      else rule1_internal := Int_set.remove cid !rule1_internal
  in
  for cid = 0 to ncom - 1 do
    refresh_commitment cid
  done;
  for jid = 0 to Sequencing.conjunction_count g - 1 do
    refresh_conjunction jid
  done;
  let target cid =
    match Sequencing.edges_of_commitment g cid with
    | [ (jid, _) ] -> jid
    | _ -> assert false
  in
  let next () =
    match Int_set.min_elt_opt !rule2 with
    | Some jid -> (
      match Sequencing.edges_of_conjunction g jid with
      | [ (cid, _) ] -> Some (Rule2, cid, jid)
      | _ -> assert false)
    | None -> (
      match Int_set.min_elt_opt !rule1_external with
      | Some cid -> Some (clause.(cid), cid, target cid)
      | None -> (
        match Int_set.min_elt_opt !rule1_internal with
        | Some cid -> Some (clause.(cid), cid, target cid)
        | None -> (
          match rule3 with
          | None -> None
          | Some (_, set) ->
            (* the rescanning oracle lists a conjunction's Rule #3
               edges by prepending, so it picks the last one *)
            Option.map
              (fun jid ->
                let edges = Sequencing.edges_of_conjunction g jid in
                (Rule3_shared, fst (List.nth edges (List.length edges - 1)), jid))
              (Int_set.min_elt_opt !set))))
  in
  let deletions = ref [] and step = ref 0 in
  let rec drain () =
    match next () with
    | None -> ()
    | Some ((_, cid, jid) as candidate) ->
      incr step;
      let neighbours = List.map fst (Sequencing.edges_of_conjunction g jid) in
      let deletion = apply g ~step:!step candidate in
      record_deletion obs obs_span g deletion;
      deletions := deletion :: !deletions;
      refresh_commitment cid;
      refresh_conjunction jid;
      List.iter (fun b -> if b <> cid then refresh_commitment b) neighbours;
      drain ()
  in
  drain ();
  let outcome = finish g !deletions in
  record_outcome obs obs_span ~pushes:!pushes outcome;
  outcome)

let feasible outcome = outcome.verdict = Feasible

let pp_rule ppf rule =
  Format.pp_print_string ppf
    (match rule with
    | Rule1 -> "Rule#1"
    | Rule1_persona -> "Rule#1(persona)"
    | Rule2 -> "Rule#2"
    | Rule3_shared -> "Rule#3(shared-agent)")

let pp_deletion g ppf d =
  let c = Sequencing.commitment g d.cid in
  let j = Sequencing.conjunction g d.jid in
  Format.fprintf ppf "%2d. %a removes %a edge (%s|%s, AND %s)%s%s" d.step pp_rule d.rule
    Sequencing.pp_colour d.colour
    (Exchange.Party.name c.Sequencing.agent)
    (Exchange.Party.name c.Sequencing.principal)
    (Exchange.Party.name j.Sequencing.owner)
    (if d.commitment_disconnected then " [commitment disconnected]" else "")
    (if d.conjunction_disconnected then " [conjunction disconnected]" else "")

let pp_outcome ppf outcome =
  Format.fprintf ppf "@[<v>";
  List.iter (fun d -> Format.fprintf ppf "%a@," (pp_deletion outcome.graph) d) outcome.deletions;
  (match outcome.verdict with
  | Feasible -> Format.fprintf ppf "verdict: FEASIBLE"
  | Stuck { remaining } ->
    Format.fprintf ppf "verdict: STUCK with %d edges remaining" (List.length remaining));
  Format.fprintf ppf "@]"
