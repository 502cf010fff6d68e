(* The static §5 bound check: run the abstract interpreter over the
   synthesized sequence and either prove the single-transfer bound for
   every principal or report the refuted parties with the maximizing
   interleaving as a counterexample schedule. Infeasible specs have no
   sequence to analyze — the verdict is vacuous (TL006/TL009 already
   explain why nothing runs). *)

open Exchange
module Feasibility = Trust_core.Feasibility

type verdict = Proved | Refuted | Vacuous

type t = { verdict : verdict; intervals : Absint.interval list; steps : int }

let vacuous = { verdict = Vacuous; intervals = []; steps = 0 }

let of_sequence seq =
  let a = Absint.of_sequence seq in
  let verdict =
    if List.for_all Absint.proved a.Absint.intervals then Proved else Refuted
  in
  { verdict; intervals = a.Absint.intervals; steps = List.length a.Absint.steps }

let of_analysis (a : Feasibility.analysis) =
  match a.Feasibility.sequence with
  | None -> vacuous
  | Some seq -> of_sequence seq

let analyze ?shared spec = of_analysis (Feasibility.analyze ?shared spec)

let refuted t = List.filter (fun i -> not (Absint.proved i)) t.intervals

let verdict_label = function
  | Proved -> "proved"
  | Refuted -> "refuted"
  | Vacuous -> "vacuous"

(* The counterexample schedule, one note line per kept step, prefixed
   by what the defector withholds. Stable format, documented in
   docs/LINT.md ("Static exposure analysis"). *)
let schedule_notes (w : Absint.witness) =
  let header =
    match w.Absint.w_defector with
    | None -> "schedule (honest, cut mid-protocol):"
    | Some q ->
      Format.asprintf "schedule (defector %s stalls %s):" (Party.name q)
        (String.concat ", "
           (List.map
              (fun (deal, kept) ->
                if kept = 0 then deal
                else Printf.sprintf "%s after %d step%s" deal kept
                       (if kept = 1 then "" else "s"))
              w.Absint.w_stalled))
  in
  header
  :: List.map
       (fun (s : Absint.astep) ->
         Printf.sprintf "  %2d. %s" s.Absint.a_index s.Absint.a_label)
       w.Absint.w_kept

let diagnostics t =
  match refuted t with
  | [] -> []
  | refuted ->
    let bound_diags =
      List.map
        (fun (i : Absint.interval) ->
          let defector =
            match i.Absint.i_witness.Absint.w_defector with
            | Some q -> Printf.sprintf " when %s defects" (Party.name q)
            | None -> ""
          in
          Diagnostic.make Diagnostic.Unprovable_bound
            (Format.asprintf
               "cannot prove the single-transfer bound for %s: worst-case \
                exposure %a exceeds its largest single transfer %a%s"
               (Party.name i.Absint.i_party)
               Asset.pp_money i.Absint.i_hi Asset.pp_money i.Absint.i_bound
               defector))
        refuted
    in
    (* one schedule note, for the worst refutation *)
    let worst =
      List.fold_left
        (fun (acc : Absint.interval) i ->
          if i.Absint.i_hi - i.Absint.i_bound > acc.Absint.i_hi - acc.Absint.i_bound
          then i
          else acc)
        (List.hd refuted) (List.tl refuted)
    in
    let schedule =
      Diagnostic.make
        ~notes:(schedule_notes worst.Absint.i_witness)
        Diagnostic.Counterexample_schedule
        (Format.asprintf
           "maximizing interleaving for %s: %d of %d steps delivered, %a at \
            risk"
           (Party.name worst.Absint.i_party)
           (List.length worst.Absint.i_witness.Absint.w_kept)
           t.steps Asset.pp_money worst.Absint.i_hi)
    in
    bound_diags @ [ schedule ]

let pp ppf t =
  match t.verdict with
  | Vacuous -> Format.fprintf ppf "static exposure: vacuous (no sequence)"
  | _ ->
    Format.fprintf ppf "@[<v>static exposure: %s@,%a@]" (verdict_label t.verdict)
      (Format.pp_print_list Absint.pp_interval)
      t.intervals
