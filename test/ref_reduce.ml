(* The rescanning reducer (paper §4.2), the reference {!Trust_core.Reduce.run}
   replays: after every deletion it lists every applicable deletion
   afresh and picks one, either by the deterministic priority (the order
   of the paper's Example #1 walkthrough) or at random, for the §4.2.4
   confluence property. Each step rescans the whole graph, so a run is
   quadratic. It reads the graph through {!Trust_core.Sequencing}'s
   interface only and derives its own tables, so it stays an independent
   witness for the worklist. Tests only. *)

module Sequencing = Trust_core.Sequencing
module Reduce = Trust_core.Reduce

(* Rule #2 candidates: the single edge of each fringe conjunction. *)
let rule2_candidates g =
  let n = Sequencing.conjunction_count g in
  let rec scan jid acc =
    if jid < 0 then acc
    else
      match Sequencing.edges_of_conjunction g jid with
      | [ (cid, _) ] -> scan (jid - 1) ((Reduce.Rule2, cid, jid) :: acc)
      | _ -> scan (jid - 1) acc
  in
  scan (n - 1) []

(* Rule #1 candidates: the single edge of each fringe commitment, when
   not pre-empted by a sibling red edge — or pre-empted but the
   principal plays its own trusted-agent role (clause 2). *)
let rule1_candidates g =
  let n = Sequencing.commitment_count g in
  let rec scan cid acc =
    if cid < 0 then acc
    else
      match Sequencing.edges_of_commitment g cid with
      | [ (jid, _) ] -> (
        match Sequencing.red_sibling g ~cid ~jid with
        | None -> scan (cid - 1) ((Reduce.Rule1, cid, jid) :: acc)
        | Some _ when Sequencing.plays_own_agent g cid ->
          scan (cid - 1) ((Reduce.Rule1_persona, cid, jid) :: acc)
        | Some _ -> scan (cid - 1) acc)
      | _ -> scan (cid - 1) acc
  in
  scan (n - 1) []

(* Rule #3 candidates: every remaining edge of a conjunction whose owner
   one agent coordinates ({!Sequencing.coordinated_bundles}), each
   conjunction's edges prepended in turn. *)
let rule3_candidates g =
  let owners = List.map fst (Sequencing.coordinated_bundles (Sequencing.spec g)) in
  let rec scan jid acc =
    if jid < 0 then acc
    else begin
      let owner = (Sequencing.conjunction g jid).Sequencing.owner in
      let acc =
        if List.exists (Exchange.Party.equal owner) owners then
          List.fold_left
            (fun acc (cid, _) -> (Reduce.Rule3_shared, cid, jid) :: acc)
            acc
            (Sequencing.edges_of_conjunction g jid)
        else acc
      in
      scan (jid - 1) acc
    end
  in
  scan (Sequencing.conjunction_count g - 1) []

(* All currently applicable deletions [(rule, cid, jid)]: Rule #2 by
   conjunction, then Rule #1 by commitment, then (shared only) Rule #3.
   An edge removable by several rules is listed once, under the first. *)
let applicable ?(shared = false) g =
  let all =
    rule2_candidates g @ rule1_candidates g @ (if shared then rule3_candidates g else [])
  in
  let rec dedup seen = function
    | [] -> []
    | ((_, cid, jid) as cand) :: rest ->
      if List.mem (cid, jid) seen then dedup seen rest
      else cand :: dedup ((cid, jid) :: seen) rest
  in
  dedup [] all

let apply g ~step (rule, cid, jid) =
  let colour =
    match Sequencing.edge_colour g ~cid ~jid with
    | Some colour -> colour
    | None -> invalid_arg "Ref_reduce.apply: edge not present"
  in
  Sequencing.remove_edge g ~cid ~jid;
  {
    Reduce.step;
    rule;
    cid;
    jid;
    colour;
    commitment_disconnected = Sequencing.is_disconnected_commitment g cid;
    conjunction_disconnected = Sequencing.is_disconnected_conjunction g jid;
  }

let finish g deletions =
  let verdict =
    if Sequencing.fully_reduced g then Reduce.Feasible
    else
      Reduce.Stuck
        {
          remaining =
            List.concat_map
              (fun c ->
                List.map
                  (fun (jid, colour) -> (c.Sequencing.cid, jid, colour))
                  (Sequencing.edges_of_commitment g c.Sequencing.cid))
              (Array.to_list (Sequencing.commitments g));
        }
  in
  { Reduce.verdict; deletions = List.rev deletions; graph = g }

let reduce ~shared ~pick g =
  let rec loop step deletions =
    match applicable ~shared g with
    | [] -> finish g deletions
    | candidates -> loop (step + 1) (apply g ~step (pick candidates) :: deletions)
  in
  loop 1 []

(* Deterministic priority: Rule #2 first (conjunction disconnects —
   notifications — fire as soon as enabled); then Rule #1 with
   commitments of external principals (parties that own no conjunction)
   before conjunction members; then Rule #3; each group in listing
   order. Who is external is static (nodes never disappear, only
   edges), so it is tabled once per run. *)
let run ?(shared = false) g =
  let external_principal =
    Array.init (Sequencing.commitment_count g) (fun cid ->
        Sequencing.conjunction_of_party g (Sequencing.commitment g cid).Sequencing.principal = None)
  in
  let rank (rule, cid, _) =
    match rule with
    | Reduce.Rule2 -> 0
    | Reduce.Rule1 | Reduce.Rule1_persona -> if external_principal.(cid) then 1 else 2
    | Reduce.Rule3_shared -> 3
  in
  let pick candidates =
    List.hd (List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) candidates)
  in
  reduce ~shared ~pick g

(* Any applicable deletion: [choose n] returns an index in [[0, n)]. *)
let run_randomized ~choose g =
  let pick candidates = List.nth candidates (choose (List.length candidates)) in
  reduce ~shared:false ~pick g
