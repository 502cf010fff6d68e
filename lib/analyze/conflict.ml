(* Cross-deal conflict analysis: shapes that are individually
   well-formed per deal but unsound across the spec's deals.

   TL013 (double spend): the same provenance asset is promised into
   more concurrent deals than the principal can supply copies of. The
   initial endowment rule (Spec.endowed, §2.4) grants one
   copy of a document the sender does not acquire elsewhere; every
   acquiring deal supplies one more. Promising past that is the
   double-spend shape of Herlihy–Liskov–Shrira's adversarial commerce:
   at most one counterparty can ever be paid in full.

   TL014 (over-pledged indemnity): one conjunction owner's splits
   pledge more combined indemnity than its whole conjunction costs —
   deposits guaranteeing more than the insurable loss.

   TL015 (deadline race): a deal's [within n] escrow deadline is
   shorter than the span its escrow is open in the synthesized
   sequence, so the release races the expiry and a transient unwind
   can break settlement ordering. *)

open Exchange
module Execution = Trust_core.Execution

let doc_name = function Asset.Document d -> Some d | Asset.Money _ -> None

(* --- TL013 ---------------------------------------------------------- *)

let double_spends ~deal_loc spec =
  let commitments = Spec.commitments spec in
  let principals = Spec.principals spec in
  List.concat_map
    (fun p ->
      (* documents this principal promises, with the promising deals *)
      let sells = Hashtbl.create 4 in
      List.iter
        (fun ((cref : Spec.commitment_ref), d) ->
          if Party.equal (Spec.commitment_principal d cref.Spec.side) p then
            match doc_name (Spec.commitment_sends d cref.Spec.side) with
            | Some doc ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt sells doc) in
              Hashtbl.replace sells doc (d.Spec.id :: prev)
            | None -> ())
        commitments;
      let acquired doc =
        List.length
          (List.filter
             (fun ((cref : Spec.commitment_ref), d) ->
               Party.equal (Spec.commitment_principal d cref.Spec.side) p
               && Asset.equal
                    (Spec.commitment_expects d cref.Spec.side)
                    (Asset.document doc))
             commitments)
      in
      Hashtbl.fold
        (fun doc deals acc ->
          let deals = List.rev deals in
          let supply = match acquired doc with 0 -> 1 | n -> n in
          if List.length deals > supply then
            Diagnostic.make
              ?loc:(deal_loc (List.hd deals))
              ~notes:
                (List.map
                   (Printf.sprintf "deal %s consumes one copy")
                   deals)
              Diagnostic.Double_spend
              (Format.asprintf
                 "%s promises %S into %d concurrent deals (%s) but can \
                  supply at most %d cop%s — a double spend"
                 (Party.name p) doc (List.length deals)
                 (String.concat ", " deals)
                 supply
                 (if supply = 1 then "y" else "ies"))
            :: acc
          else acc)
        sells [])
    principals

(* --- TL014 ---------------------------------------------------------- *)

let over_pledged ~split_loc spec =
  let owners =
    List.sort_uniq Party.compare (List.map fst spec.Spec.splits)
  in
  List.filter_map
    (fun owner ->
      let splits =
        List.filter_map
          (fun (o, cref) -> if Party.equal o owner then Some cref else None)
          spec.Spec.splits
      in
      if List.length splits < 2 then None
      else
        let pledged =
          List.fold_left
            (fun acc cref -> acc + Spec.indemnity_amount spec owner cref)
            0 splits
        in
        let insurable =
          List.fold_left
            (fun acc cref -> acc + Spec.cost_to spec owner cref)
            0
            (Spec.commitments_of spec owner)
        in
        if pledged > insurable then
          Some
            (Diagnostic.make
               ?loc:(split_loc (Party.name owner) (List.hd splits))
               Diagnostic.Over_pledged_indemnity
               (Format.asprintf
                  "%s's %d splits pledge %a of combined indemnities against \
                   a conjunction whose pieces cost only %a in total — the \
                   deposits guarantee more than the insurable loss"
                  (Party.name owner) (List.length splits) Asset.pp_money
                  pledged Asset.pp_money insurable))
        else None)
    owners

(* --- TL015 ---------------------------------------------------------- *)

(* The escrow of deal [d] opens at its first commit and is released by
   its last forward; in lockstep each delivery costs one tick, so the
   step span is how long the intermediary holds a side. *)
let deadline_races ~deal_loc (seq : Execution.sequence) =
  let spec = seq.Execution.spec in
  List.filter_map
    (fun (d : Spec.deal) ->
      match d.Spec.deadline with
      | None -> None
      | Some n ->
        let indices =
          List.filter_map
            (fun (s : Execution.step) ->
              match s.Execution.origin with
              | Execution.Commit cref when String.equal cref.Spec.deal d.Spec.id ->
                Some s.Execution.index
              | Execution.Forward id when String.equal id d.Spec.id ->
                Some s.Execution.index
              | _ -> None)
            seq.Execution.steps
        in
        (match indices with
        | [] -> None
        | first :: _ ->
          let last = List.fold_left max first indices in
          let span = last - first in
          if n < span then
            Some
              (Diagnostic.make
                 ?loc:(deal_loc d.Spec.id)
                 Diagnostic.Deadline_race
                 (Printf.sprintf
                    "deal %s: the escrow stays open for %d steps of the \
                     synthesized sequence but its deadline is within %d — \
                     the release races the expiry and the escrow can unwind \
                     mid-protocol"
                    d.Spec.id span n))
          else None))
    spec.Spec.deals

(* Structural conflicts need no synthesis and run in quick mode too —
   the serve admission gate sees TL013 before scheduling a session. *)
let structural ~deal_loc ~split_loc spec =
  double_spends ~deal_loc spec @ over_pledged ~split_loc spec
