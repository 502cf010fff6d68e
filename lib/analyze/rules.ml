open Exchange
module Ast = Trust_lang.Ast
module Loc = Trust_lang.Loc
module Sequencing = Trust_core.Sequencing
module Reduce = Trust_core.Reduce
module Feasibility = Trust_core.Feasibility

(* ------------------------------------------------------------------ *)
(* Source-location lookups from the (optional) AST.                    *)

let located (name : string Loc.located) = (name.Loc.value, name.Loc.loc)

let deal_loc decls id =
  List.find_map
    (function
      | Ast.Deal { id = d; _ } when String.equal (fst (located d)) id ->
        Some (snd (located d))
      | _ -> None)
    decls

let party_loc decls name =
  List.find_map
    (function
      | Ast.Principal { name = n; _ } when String.equal (fst (located n)) name
        ->
        Some (snd (located n))
      | Ast.Trusted n when String.equal (fst (located n)) name ->
        Some (snd (located n))
      | _ -> None)
    decls

let ast_side = function Ast.Buyer -> Spec.Left | Ast.Seller -> Spec.Right

let mark_loc which decls owner (cref : Spec.commitment_ref) =
  List.find_map
    (fun decl ->
      match (which, decl) with
      | `Priority, Ast.Priority { owner = o; target }
      | `Split, Ast.Split { owner = o; target }
        when String.equal (fst (located o)) owner
             && String.equal (fst (located target.Ast.deal)) cref.Spec.deal
             && ast_side target.Ast.side = cref.Spec.side ->
        Some (snd (located o))
      | _ -> None)
    decls

let persona_loc decls role principal =
  let direct =
    List.find_map
      (function
        | Ast.Persona { trusted; _ }
          when String.equal (fst (located trusted)) role ->
          Some (snd (located trusted))
        | _ -> None)
      decls
  in
  match direct with
  | Some _ as loc -> loc
  | None ->
    (* [trust a -> b] sugar: the persona was derived from a trust edge
       whose trustee is the principal. *)
    List.find_map
      (function
        | Ast.Trust { truster; trustee }
          when String.equal (fst (located trustee)) principal ->
          Some (snd (located truster))
        | _ -> None)
      decls

(* ------------------------------------------------------------------ *)
(* Structural rules.                                                   *)

let unused_party decls =
  let referenced = Hashtbl.create 16 in
  let reference (name : string Loc.located) =
    Hashtbl.replace referenced name.Loc.value ()
  in
  List.iter
    (function
      | Ast.Deal { first; second; via; _ } ->
        reference first.Ast.party;
        reference second.Ast.party;
        reference via
      | Ast.Priority { owner; _ } | Ast.Split { owner; _ } -> reference owner
      | Ast.Trust { truster; trustee } ->
        reference truster;
        reference trustee
      | Ast.Persona { trusted; principal } ->
        reference trusted;
        reference principal
      | Ast.Relay name -> reference name
      | Ast.Request { buyer; seller; _ } ->
        reference buyer;
        reference seller
      | Ast.Principal _ | Ast.Trusted _ -> ())
    decls;
  List.filter_map
    (function
      | Ast.Principal { name; _ } | Ast.Trusted name ->
        if Hashtbl.mem referenced name.Loc.value then None
        else
          Some
            (Diagnostic.make ~loc:name.Loc.loc Diagnostic.Unused_party
               (Printf.sprintf "party %s is declared but never used"
                  name.Loc.value))
      | _ -> None)
    decls

let dead_asset ~deal_loc spec =
  let commitments = Spec.commitments spec in
  let acquires p doc =
    List.exists
      (fun ((cref : Spec.commitment_ref), deal) ->
        Party.equal (Spec.commitment_principal deal cref.Spec.side) p
        && Asset.equal (Spec.commitment_sends deal cref.Spec.side)
             (Asset.document doc))
      commitments
  in
  List.filter_map
    (fun ((cref : Spec.commitment_ref), (deal : Spec.deal)) ->
      let p = Spec.commitment_principal deal cref.Spec.side in
      match
        (Party.role p, Spec.commitment_expects deal cref.Spec.side)
      with
      | Some Party.Broker, Asset.Document doc when not (acquires p doc) ->
        Some
          (Diagnostic.make ?loc:(deal_loc deal.Spec.id)
             Diagnostic.Dead_asset
             (Format.asprintf
                "broker %s acquires %S in deal %s but never transfers it \
                 on — a dead asset"
                (Party.name p) doc deal.Spec.id))
      | _ -> None)
    commitments

let unbacked_split ~split_loc spec =
  List.filter_map
    (fun (owner, cref) ->
      let amount = Spec.indemnity_amount spec owner cref in
      if amount > 0 then
        Some
          (Diagnostic.make
             ?loc:(split_loc (Party.name owner) cref)
             Diagnostic.Unbacked_split
             (Format.asprintf
                "splitting %a off %s's conjunction leaves %s exposed for \
                 %a unless an indemnity of that amount is deposited — no \
                 deal in this spec provides it"
                Spec.pp_ref cref (Party.name owner) (Party.name owner)
                Asset.pp_money amount))
      else None)
    spec.Spec.splits

let redundant_priority ~priority_loc spec =
  let rec walk seen = function
    | [] -> []
    | ((owner, (cref : Spec.commitment_ref)) as entry) :: rest ->
      let loc = priority_loc (Party.name owner) cref in
      let diag message = Diagnostic.make ?loc Diagnostic.Redundant_priority message in
      let here =
        if
          List.exists
            (fun (o, c) -> Party.equal o owner && Spec.equal_ref c cref)
            seen
        then
          [
            diag
              (Format.asprintf "priority %s : %a is declared twice"
                 (Party.name owner) Spec.pp_ref cref);
          ]
        else if List.length (Spec.linked_commitments_of spec owner) < 2 then
          [
            diag
              (Format.asprintf
                 "priority %s : %a orders nothing — %s has no conjunction \
                  (fewer than two linked commitments)"
                 (Party.name owner) Spec.pp_ref cref (Party.name owner));
          ]
        else if Spec.is_split spec owner cref then
          [
            diag
              (Format.asprintf
                 "priority %s : %a marks a split edge, which is absent \
                  from the sequencing graph"
                 (Party.name owner) Spec.pp_ref cref);
          ]
        else []
      in
      here @ walk (entry :: seen) rest
  in
  walk [] spec.Spec.priorities

let contradictory_priorities ~party_loc ~priority_loc spec =
  let graph = Sequencing.build spec in
  let diags = ref [] in
  for jid = 0 to Sequencing.conjunction_count graph - 1 do
    let reds =
      List.filter
        (fun (cid, colour) ->
          colour = Sequencing.Red
          && not (Sequencing.plays_own_agent graph cid))
        (Sequencing.edges_of_conjunction graph jid)
    in
    if List.length reds >= 2 then begin
      let owner = (Sequencing.conjunction graph jid).Sequencing.owner in
      let crefs =
        List.map
          (fun (cid, _) ->
            (Sequencing.commitment graph cid).Sequencing.cref)
          reds
      in
      let loc =
        match crefs with
        | cref :: _ -> (
          match priority_loc (Party.name owner) cref with
          | Some _ as l -> l
          | None -> party_loc (Party.name owner))
        | [] -> None
      in
      diags :=
        Diagnostic.make ?loc Diagnostic.Contradictory_priorities
          (Format.asprintf
             "conjunction of %s holds %d mutually pre-empting red edges \
              (%s) — no commitment of the bundle can be committed first"
             (Party.name owner) (List.length reds)
             (String.concat ", "
                (List.map (Format.asprintf "%a" Spec.pp_ref) crefs)))
        :: !diags
    end
  done;
  List.rev !diags

let zero_value_leg ~deal_loc spec =
  List.filter_map
    (fun ((cref : Spec.commitment_ref), (deal : Spec.deal)) ->
      match Spec.commitment_sends deal cref.Spec.side with
      | Asset.Money 0 ->
        Some
          (Diagnostic.make ?loc:(deal_loc deal.Spec.id)
             Diagnostic.Zero_value_leg
             (Format.asprintf
                "deal %s: %s pays %a — a zero-value leg secures nothing"
                deal.Spec.id
                (Party.name (Spec.commitment_principal deal cref.Spec.side))
                Asset.pp_money 0))
      | _ -> None)
    (Spec.commitments spec)

(* ------------------------------------------------------------------ *)
(* Deep rules: the full feasibility pipeline.                          *)

let feasibility_diags analysis =
  match analysis.Feasibility.outcome.Reduce.verdict with
  | Reduce.Feasible ->
    let unsafe =
      match analysis.Feasibility.sequence with
      | None -> []
      | Some seq -> (
        match Verifier.verify seq with
        | Ok () -> []
        | Error exposures ->
          [
            Diagnostic.make
              ~notes:
                (List.map
                   (Format.asprintf "%a" Verifier.pp_exposure)
                   exposures)
              Diagnostic.Unsafe_sequence
              "the synthesized execution sequence fails the protection \
               invariant (verifier self-check)";
          ])
    in
    (`Feasible, unsafe)
  | Reduce.Stuck _ ->
    let kernel_notes =
      match Kernel.of_outcome analysis.Feasibility.outcome with
      | Some kernel ->
        Kernel.explain analysis.Feasibility.outcome.Reduce.graph kernel
      | None -> []
    in
    let diag =
      match Feasibility.rescue_from analysis with
      | Some rescue ->
        Diagnostic.make ~notes:kernel_notes
          Diagnostic.Rescuable_infeasibility
          (Format.asprintf
             "infeasible as written: reduction gets stuck, but an \
              indemnity rescue exists — indemnities totalling %a make it \
              feasible (try `trustseq indemnify`)"
             Asset.pp_money
             (Feasibility.total_indemnity rescue))
      | None ->
        Diagnostic.make ~notes:kernel_notes
          Diagnostic.Unreachable_acceptance
          "no acceptable final state is reachable from the commitment \
           set, and no indemnity rescue exists"
    in
    (`Stuck, [ diag ])

let vacuous_intermediary ~persona_loc spec =
  let bindings = Party.Map.bindings spec.Spec.personas in
  List.filter_map
    (fun (role, principal) ->
      let personas =
        List.filter
          (fun (r, _) -> not (Party.equal r role))
          bindings
      in
      match
        Spec.make ~personas ~priorities:spec.Spec.priorities
          ~splits:spec.Spec.splits
          ~overrides:(Party.Map.bindings spec.Spec.overrides)
          spec.Spec.deals
      with
      | Error _ -> None
      | Ok stripped ->
        if Feasibility.is_feasible stripped then
          Some
            (Diagnostic.make
               ?loc:(persona_loc (Party.name role) (Party.name principal))
               Diagnostic.Vacuous_intermediary
               (Format.asprintf
                  "direct trust is unnecessary: the exchange stays \
                   feasible when %s is an ordinary trusted intermediary \
                   instead of a persona of %s"
                  (Party.name role) (Party.name principal)))
        else None)
    bindings

(* ------------------------------------------------------------------ *)

let check ?file ?decls ?(static = true) ~deep spec =
  let decls = Option.value decls ~default:[] in
  let deal_loc id = deal_loc decls id in
  let party_loc name = party_loc decls name in
  let priority_loc owner cref = mark_loc `Priority decls owner cref in
  let split_loc owner cref = mark_loc `Split decls owner cref in
  let persona_loc role principal = persona_loc decls role principal in
  let structural =
    unused_party decls
    @ dead_asset ~deal_loc spec
    @ unbacked_split ~split_loc spec
    @ redundant_priority ~priority_loc spec
    @ contradictory_priorities ~party_loc ~priority_loc spec
    @ zero_value_leg ~deal_loc spec
    @ Conflict.structural ~deal_loc ~split_loc spec
  in
  let contradiction =
    List.exists
      (fun d -> d.Diagnostic.code = Diagnostic.Contradictory_priorities)
      structural
  in
  let diags =
    if not deep then structural
    else if contradiction then
      (* The contradiction already explains the stuck graph; TL006/TL009
         would only restate it. *)
      structural
    else
      let analysis = Feasibility.analyze spec in
      let verdict, feas = feasibility_diags analysis in
      let vacuous =
        match verdict with
        | `Feasible -> vacuous_intermediary ~persona_loc spec
        | `Stuck -> []
      in
      (* The static exposure pass reuses the synthesized sequence: TL015
         needs the step spans, TL016/TL017 the abstract interpretation.
         A double spend (TL013) already invalidates the interpreter's
         one-copy-per-supply assumption, so the bound check is
         suppressed the way TL005 suppresses TL006/TL009. *)
      let double_spend =
        List.exists
          (fun d -> d.Diagnostic.code = Diagnostic.Double_spend)
          structural
      in
      let static_diags =
        match (static, analysis.Feasibility.sequence) with
        | true, Some seq ->
          Conflict.deadline_races ~deal_loc seq
          @
          if double_spend then []
          else Static_exposure.diagnostics (Static_exposure.of_sequence seq)
        | _ -> []
      in
      structural @ feas @ vacuous @ static_diags
  in
  List.map (fun d -> { d with Diagnostic.file }) diags
