open Exchange

type colour = Red | Black

type commitment = {
  cid : int;
  cref : Spec.commitment_ref;
  principal : Party.t;
  agent : Party.t;
}

type conjunction = { jid : int; owner : Party.t; scope : string option }

type t = {
  spec : Spec.t;
  commitments : commitment array;
  conjunctions : conjunction array;
  c_edges : (int * colour) list array;  (* per commitment: (jid, colour) *)
  j_edges : (int * colour) list array;  (* per conjunction: (cid, colour) *)
  mutable n_edges : int;
}

let spec t = t.spec
let commitments t = t.commitments
let conjunctions t = t.conjunctions
let commitment_count t = Array.length t.commitments
let conjunction_count t = Array.length t.conjunctions
let commitment t cid = t.commitments.(cid)
let conjunction t jid = t.conjunctions.(jid)

let conjunction_of_party t party =
  Array.fold_left
    (fun found j -> if Party.equal j.owner party then Some j else found)
    None t.conjunctions

let build ?(granular = false) spec =
  let commitments =
    Array.of_list
      (List.mapi
         (fun cid (cref, d) ->
           {
             cid;
             cref;
             principal = Spec.commitment_principal d cref.Spec.side;
             agent = d.Spec.via;
           })
         (Spec.commitments spec))
  in
  let conjunction_specs =
    List.concat_map
      (fun owner ->
        if granular && Party.is_trusted owner then
          let deals =
            List.filter (fun d -> Party.equal d.Spec.via owner) spec.Spec.deals
          in
          match deals with
          | _ :: _ :: _ -> List.map (fun d -> (owner, Some d.Spec.id)) deals
          | _ -> [ (owner, None) ]
        else [ (owner, None) ])
      (Spec.internal_parties spec)
  in
  let conjunctions =
    Array.of_list (List.mapi (fun jid (owner, scope) -> { jid; owner; scope }) conjunction_specs)
  in
  let t =
    {
      spec;
      commitments;
      conjunctions;
      c_edges = Array.make (Array.length commitments) [];
      j_edges = Array.make (Array.length conjunctions) [];
      n_edges = 0;
    }
  in
  let add_edge cid jid colour =
    t.c_edges.(cid) <- t.c_edges.(cid) @ [ (jid, colour) ];
    t.j_edges.(jid) <- t.j_edges.(jid) @ [ (cid, colour) ];
    t.n_edges <- t.n_edges + 1
  in
  let connect c j =
    if not (Spec.is_split spec j.owner c.cref) then begin
      let colour = if Spec.is_priority spec j.owner c.cref then Red else Black in
      add_edge c.cid j.jid colour
    end
  in
  let in_scope c j =
    match j.scope with None -> true | Some deal -> String.equal deal c.cref.Spec.deal
  in
  (* index conjunctions by owner so construction is linear in edges *)
  let by_owner = Hashtbl.create (Array.length conjunctions) in
  Array.iter
    (fun j ->
      let key = Party.to_string j.owner in
      Hashtbl.replace by_owner key
        (Option.value ~default:[] (Hashtbl.find_opt by_owner key) @ [ j ]))
    conjunctions;
  let conjunctions_of party =
    Option.value ~default:[] (Hashtbl.find_opt by_owner (Party.to_string party))
  in
  Array.iter
    (fun c ->
      List.iter
        (fun j -> if in_scope c j then connect c j)
        (conjunctions_of c.principal @ conjunctions_of c.agent))
    commitments;
  t

let copy t =
  {
    t with
    c_edges = Array.copy t.c_edges;
    j_edges = Array.copy t.j_edges;
  }

let edges_of_commitment t cid = t.c_edges.(cid)
let edges_of_conjunction t jid = t.j_edges.(jid)

let edge_colour t ~cid ~jid =
  List.fold_left
    (fun found (j, colour) -> if j = jid then Some colour else found)
    None t.c_edges.(cid)

let edge_count t = t.n_edges

let remove_edge t ~cid ~jid =
  match edge_colour t ~cid ~jid with
  | None -> ()
  | Some _ ->
    t.c_edges.(cid) <- List.filter (fun (j, _) -> j <> jid) t.c_edges.(cid);
    t.j_edges.(jid) <- List.filter (fun (c, _) -> c <> cid) t.j_edges.(jid);
    t.n_edges <- t.n_edges - 1

let commitment_fringe t cid = List.length t.c_edges.(cid) <= 1
let conjunction_fringe t jid = List.length t.j_edges.(jid) <= 1

let red_sibling t ~cid ~jid =
  List.fold_left
    (fun found (c, colour) ->
      if c <> cid && colour = Red then Some c else found)
    None t.j_edges.(jid)

let plays_own_agent t cid = Spec.plays_own_agent t.spec t.commitments.(cid).cref

let is_disconnected_commitment t cid = t.c_edges.(cid) = []
let is_disconnected_conjunction t jid = t.j_edges.(jid) = []
let fully_reduced t = t.n_edges = 0

let check_invariants t =
  let result = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt in
  (* Edge symmetry *)
  Array.iteri
    (fun cid edges ->
      List.iter
        (fun (jid, colour) ->
          if jid < 0 || jid >= Array.length t.conjunctions then
            fail "commitment %d has edge to bogus conjunction %d" cid jid
          else if not (List.mem (cid, colour) t.j_edges.(jid)) then
            fail "edge (%d, %d) missing from conjunction side" cid jid)
        edges)
    t.c_edges;
  Array.iteri
    (fun jid edges ->
      List.iter
        (fun (cid, colour) ->
          if cid < 0 || cid >= Array.length t.commitments then
            fail "conjunction %d has edge to bogus commitment %d" jid cid
          else if not (List.mem (jid, colour) t.c_edges.(cid)) then
            fail "edge (%d, %d) missing from commitment side" cid jid)
        edges)
    t.j_edges;
  (* Commitment degree *)
  Array.iteri
    (fun cid edges ->
      if List.length edges > 2 then fail "commitment %d has degree %d" cid (List.length edges))
    t.c_edges;
  (* Endpoint parties and colours *)
  Array.iteri
    (fun cid edges ->
      let c = t.commitments.(cid) in
      List.iter
        (fun (jid, colour) ->
          let owner = t.conjunctions.(jid).owner in
          if not (Party.equal owner c.principal || Party.equal owner c.agent) then
            fail "edge (%d, %d): %a is no endpoint of %a" cid jid Party.pp owner Spec.pp_ref
              c.cref;
          let expected = if Spec.is_priority t.spec owner c.cref then Red else Black in
          if colour <> expected then fail "edge (%d, %d) has wrong colour" cid jid)
        edges)
    t.c_edges;
  !result

(* Bundle conjunctions one agent can coordinate atomically: the owner
   holds several own-side pieces, nobody marked any of those deals'
   commitments red (the counterparties run no resale risk), and every
   piece flows through the same non-persona agent. *)
let coordinated_bundles spec =
  List.filter_map
    (fun owner ->
      if not (Party.is_principal owner) then None
      else begin
        let pieces =
          List.filter_map
            (fun cref ->
              match Spec.find_deal spec cref.Spec.deal with
              | Some d when Party.equal (Spec.commitment_principal d cref.Spec.side) owner ->
                Some (cref, d)
              | Some _ | None -> None)
            (Spec.linked_commitments_of spec owner)
        in
        if List.length pieces < 2 then None
        else begin
          (* a validated mark's owner is the commitment's principal or agent *)
          let red_free (cref, d) =
            let marked side =
              let c = { cref with Spec.side } in
              Spec.is_priority spec (Spec.commitment_principal d side) c
              || Spec.is_priority spec d.Spec.via c
            in
            (not (marked cref.Spec.side)) && not (marked (Spec.other_side cref.Spec.side))
          in
          match pieces with
          | (_, first) :: rest
            when List.for_all red_free pieces
                 && Spec.persona_of spec first.Spec.via = None
                 && List.for_all
                      (fun (_, d) -> Party.equal d.Spec.via first.Spec.via)
                      rest ->
            Some (owner, first.Spec.via)
          | _ -> None
        end
      end)
    (Spec.internal_parties spec)

let atomic_escrow ~shared spec =
  let coordinators = List.map snd (coordinated_bundles spec) in
  fun agent ->
    List.exists (Party.equal agent) coordinators
    || ((not shared) && List.compare_length_with (Spec.mediated_by spec agent) 1 > 0)

let pp_colour ppf colour =
  Format.pp_print_string ppf (match colour with Red -> "red" | Black -> "black")

let commitment_label c =
  Printf.sprintf "%s | %s" (Party.name c.agent) (Party.name c.principal)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph sequencing {\n  rankdir=LR;\n";
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [shape=hexagon, label=\"%s\"];\n" c.cid
           (Trust_graph.Dot.escape (commitment_label c))))
    t.commitments;
  Array.iter
    (fun j ->
      Buffer.add_string buf
        (Printf.sprintf "  j%d [shape=box, label=\"AND %s\"];\n" j.jid
           (Trust_graph.Dot.escape (Party.name j.owner))))
    t.conjunctions;
  Array.iteri
    (fun cid edges ->
      List.iter
        (fun (jid, colour) ->
          let attrs =
            match colour with
            | Red -> ", color=red, penwidth=2.5"
            | Black -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  c%d -> j%d [dir=none%s];\n" cid jid attrs))
        edges)
    t.c_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_ascii t =
  let buf = Buffer.create 512 in
  let label cid = Printf.sprintf "[%s]" (commitment_label t.commitments.(cid)) in
  Array.iter
    (fun j ->
      let scope =
        match j.scope with Some deal -> Printf.sprintf " (deal %s)" deal | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "AND %s%s\n" (Party.name j.owner) scope);
      (match t.j_edges.(j.jid) with
      | [] -> Buffer.add_string buf "  (disconnected)\n"
      | edges ->
        List.iter
          (fun (cid, colour) ->
            let stroke = match colour with Red -> "══red══" | Black -> "───────" in
            Buffer.add_string buf (Printf.sprintf "  %s %s\n" stroke (label cid)))
          edges);
      Buffer.add_char buf '\n')
    t.conjunctions;
  let free =
    Array.to_list t.commitments
    |> List.filter (fun c -> t.c_edges.(c.cid) = [])
  in
  if free <> [] then begin
    Buffer.add_string buf "free commitments (no conjunction constraints left):\n";
    List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "  %s\n" (label c.cid))) free
  end;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>sequencing graph: %d commitments, %d conjunctions, %d edges"
    (commitment_count t) (conjunction_count t) t.n_edges;
  Array.iter
    (fun c ->
      Format.fprintf ppf "@,  C%d [%s]:" c.cid (commitment_label c);
      List.iter
        (fun (jid, colour) ->
          Format.fprintf ppf " --%a--> AND(%s)" pp_colour colour
            (Party.name t.conjunctions.(jid).owner))
        t.c_edges.(c.cid))
    t.commitments;
  Format.fprintf ppf "@]"
