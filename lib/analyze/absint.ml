(* Abstract interpretation of the synthesized protocol: per-principal
   worst-case exposure over every legal lockstep interleaving and every
   single-party defection pattern, without enumerating executions.

   Each emitted step of the execution sequence compiles to a set of
   risk deltas (release / receive, valued at the affected principal's
   own cost basis), mirroring the dynamic exposure ledger's accounting
   (lib/sim/exposure.ml): escrow at a genuine trusted agent is
   protected; custody handed to a third-party persona is released the
   moment it is committed; a commit whose effective agent is the
   counterparty itself (§4.2.3 direct trust) is already the delivery.

   In lockstep, every legal interleaving delivers a prefix of the
   synthesized total order, so the honest worst case is the maximum of
   a principal's net position over prefixes. A single defector [q] can
   additionally stall any deal it participates in — and, through
   document-supply chains, any deal depending on one of [q]'s — at an
   arbitrary point of that deal's own step prefix while the rest of
   the schedule runs on. The abstract worst case therefore joins, per
   touched deal, the deal's own maximal prefix contribution (the
   lattice join over all cut states of that escrow slot) on top of the
   untouched schedule's worst prefix. Granting the adversary per-deal
   independent stalling power over-approximates the engine's defection
   semantics (a real Silent/Partial defector stalls one global suffix
   of its script), so the computed interval is a sound upper bound on
   every dynamic peak the simulation battery can produce. Deadline
   unwinds only return escrow and indemnity deposits only add cover,
   so ignoring both preserves the upper bound. *)

open Exchange
module Execution = Trust_core.Execution

type delta = {
  d_party : Party.t;
  d_release : Asset.money;  (** value leaving the party's control *)
  d_receive : Asset.money;  (** value finally delivered to the party *)
}

type astep = {
  a_index : int;  (** the execution step's 1-based index *)
  a_deal : string option;  (** owning deal; [None] for notifications *)
  a_label : string;
  a_deltas : delta list;
}

type witness = {
  w_defector : Party.t option;
  w_at_risk : Asset.money;
  w_kept : astep list;  (** the maximizing schedule, original order *)
  w_stalled : (string * int) list;
      (** touched deals: (deal, steps the defector lets through) *)
}

type interval = {
  i_party : Party.t;
  i_bound : Asset.money;
  i_lo : Asset.money;  (** honest-run peak *)
  i_hi : Asset.money;  (** worst case over defectors and interleavings *)
  i_witness : witness;
}

type t = { spec : Spec.t; steps : astep list; intervals : interval list }

let proved i = i.i_hi <= i.i_bound

(* ------------------------------------------------------------------ *)
(* Compiling steps to deltas.                                          *)

let release p v = { d_party = p; d_release = v; d_receive = 0 }
let receive p v = { d_party = p; d_release = 0; d_receive = v }

let pp_origin ppf = function
  | Execution.Commit cref -> Format.fprintf ppf "commit %a" Spec.pp_ref cref
  | Execution.Forward deal -> Format.fprintf ppf "forward %s" deal
  | Execution.Notification owner ->
    Format.fprintf ppf "conjunction %s" (Party.name owner)

let compile_step spec (step : Execution.step) =
  let label =
    Format.asprintf "%a  (%a)" Action.pp step.Execution.action pp_origin
      step.Execution.origin
  in
  let deal, deltas =
    match (step.Execution.origin, step.Execution.action) with
    | Execution.Notification _, _ | _, Action.Notify _ -> (None, [])
    | _, Action.Undo _ ->
      (* synthesized sequences contain no unwinds; refunds only return
         escrow, so treating one as a no-op stays an upper bound *)
      (None, [])
    | Execution.Commit cref, Action.Do _ -> (
      match Spec.find_deal spec cref.Spec.deal with
      | None -> (None, [])
      | Some d ->
        let side = cref.Spec.side in
        let principal = Spec.commitment_principal d side in
        let counterpart = Spec.commitment_principal d (Spec.other_side side) in
        let agent = Spec.effective_agent spec d in
        let asset = Spec.commitment_sends d side in
        let deltas =
          if Party.equal principal agent then
            (* virtual commit (§4.2.4): not even emitted; defensive *)
            []
          else if Party.equal counterpart agent then
            (* direct trust: the commit is itself the delivery *)
            [
              release principal (Spec.price_for spec principal asset);
              receive counterpart (Spec.price_for spec counterpart asset);
            ]
          else if Party.is_principal agent then
            (* custody at a third-party persona: out of the principal's
               hands and into another principal's — at risk now *)
            [ release principal (Spec.price_for spec principal asset) ]
          else (* genuine trusted agent: protected escrow *) []
        in
        (Some d.Spec.id, deltas))
    | Execution.Forward id, Action.Do tr -> (
      match Spec.find_deal spec id with
      | None -> (Some id, [])
      | Some d ->
        (* the forwarded asset is the [side] principal's commitment,
           delivered to the counter-side principal *)
        let side_of s =
          Asset.equal (Spec.commitment_sends d s) tr.Action.asset
          && Party.equal
               (Spec.commitment_principal d (Spec.other_side s))
               tr.Action.target
        in
        let side =
          if side_of Spec.Left then Some Spec.Left
          else if side_of Spec.Right then Some Spec.Right
          else None
        in
        (match side with
        | None -> (Some id, [])
        | Some side ->
          let principal = Spec.commitment_principal d side in
          let counterpart = Spec.commitment_principal d (Spec.other_side side) in
          let agent = Spec.effective_agent spec d in
          let asset = Spec.commitment_sends d side in
          let releases =
            if Party.equal principal agent then
              (* own-agent commit was virtual: the outlay happens here *)
              [ release principal (Spec.price_for spec principal asset) ]
            else if Party.is_trusted agent then
              (* escrow settles away from the contributor *)
              [ release principal (Spec.price_for spec principal asset) ]
            else (* persona custody: already released at commit *) []
          in
          (Some id, releases @ [ receive counterpart (Spec.price_for spec counterpart asset) ])))
  in
  { a_index = step.Execution.index; a_deal = deal; a_label = label; a_deltas = deltas }

(* ------------------------------------------------------------------ *)
(* The defector's reach: deals it participates in, closed under
   document supply (a resale cannot complete if its supplier stalls). *)

let touched_deals spec q =
  let seed =
    List.filter_map
      (fun (d : Spec.deal) ->
        if Party.equal d.Spec.left q || Party.equal d.Spec.right q then
          Some d.Spec.id
        else None)
      spec.Spec.deals
  in
  let supplies touched (d : Spec.deal) =
    List.exists
      (fun side ->
        match Spec.commitment_sends d side with
        | Asset.Money _ -> false
        | Asset.Document _ as doc ->
          let p = Spec.commitment_principal d side in
          List.exists
            (fun ((cref : Spec.commitment_ref), e) ->
              List.mem e.Spec.id touched
              && Party.equal (Spec.commitment_principal e cref.Spec.side) p
              && Asset.equal (Spec.commitment_expects e cref.Spec.side) doc)
            (Spec.commitments spec))
      [ Spec.Left; Spec.Right ]
  in
  let rec close touched =
    let more =
      List.filter_map
        (fun (d : Spec.deal) ->
          if List.mem d.Spec.id touched then None
          else if supplies touched d then Some d.Spec.id
          else None)
        spec.Spec.deals
    in
    if more = [] then touched else close (more @ touched)
  in
  close seed

(* ------------------------------------------------------------------ *)
(* Interval computation.                                               *)

let net_of step party =
  List.fold_left
    (fun acc d ->
      if Party.equal d.d_party party then acc + d.d_release - d.d_receive
      else acc)
    0 step.a_deltas

(* Maximal prefix sum over [steps] of [party]'s net position, with the
   number of steps in the maximizing prefix. The empty prefix is legal,
   so the result is >= 0. *)
let max_prefix steps party =
  let _, best, best_len, _ =
    List.fold_left
      (fun (sum, best, best_len, len) step ->
        let sum = sum + net_of step party in
        let len = len + 1 in
        if sum > best then (sum, sum, len, len) else (sum, best, best_len, len))
      (0, 0, 0, 0) steps
  in
  (best, best_len)

let worst_case steps touched party =
  let base = List.filter (fun s -> s.a_deal = None || not (List.mem (Option.get s.a_deal) touched)) steps in
  let base_risk, base_len = max_prefix base party in
  let stalls =
    List.map
      (fun deal ->
        let own = List.filter (fun s -> s.a_deal = Some deal) steps in
        let gain, kept = max_prefix own party in
        (deal, own, gain, kept))
      touched
  in
  let risk = List.fold_left (fun acc (_, _, g, _) -> acc + g) base_risk stalls in
  let kept_steps =
    List.filteri (fun i _ -> i < base_len) base
    @ List.concat_map
        (fun (_, own, _, kept) -> List.filteri (fun i _ -> i < kept) own)
        stalls
    |> List.sort (fun a b -> Int.compare a.a_index b.a_index)
  in
  let stalled =
    List.filter_map
      (fun (deal, own, _, kept) ->
        if kept < List.length own then Some (deal, kept) else None)
      stalls
  in
  (risk, kept_steps, stalled)

let interval_of spec steps reaches party =
  let bound = Spec.single_transfer_bound spec party in
  let lo, honest_steps, _ = worst_case steps [] party in
  let honest =
    { w_defector = None; w_at_risk = lo; w_kept = honest_steps; w_stalled = [] }
  in
  let worst =
    List.fold_left
      (fun acc (q, touched) ->
        if Party.equal q party then acc
        else if touched = [] then acc
        else
          let risk, kept, stalled = worst_case steps touched party in
          if risk > acc.w_at_risk then
            { w_defector = Some q; w_at_risk = risk; w_kept = kept; w_stalled = stalled }
          else acc)
      honest reaches
  in
  { i_party = party; i_bound = bound; i_lo = lo; i_hi = worst.w_at_risk; i_witness = worst }

let of_sequence (seq : Execution.sequence) =
  let spec = seq.Execution.spec in
  let steps = List.map (compile_step spec) seq.Execution.steps in
  (* a defector's reach does not depend on whose exposure is measured *)
  let reaches =
    List.map (fun q -> (q, touched_deals spec q)) (Spec.defectable_principals spec)
  in
  let intervals =
    List.map (interval_of spec steps reaches) (Spec.principals spec)
  in
  { spec; steps; intervals }

let pp_interval ppf i =
  Format.fprintf ppf "%s: bound=%a honest=%a worst=%a %s" (Party.name i.i_party)
    Asset.pp_money i.i_bound Asset.pp_money i.i_lo Asset.pp_money i.i_hi
    (if proved i then "proved" else "REFUTED")

let pp ppf t =
  Format.fprintf ppf "@[<v>static exposure (%d steps):@,%a@]"
    (List.length t.steps)
    (Format.pp_print_list pp_interval)
    t.intervals
