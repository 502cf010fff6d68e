(* Example #2 and Figure 7 (§3.2, §6): a customer needs the text AND the
   diagrams of a patent, sold by different providers through different
   brokers — the all-or-nothing bundle the paper shows to be infeasible,
   and the indemnity mechanism that rescues it.

     dune exec examples/patent_bundle.exe
*)

open Exchange
module Feasibility = Trust_core.Feasibility
module Indemnity = Trust_core.Indemnity

let rule () = print_endline (String.make 72 '-')

let () =
  (* The patent bundle: text from one provider, diagrams from another
     (the paper notes they really are sold separately). *)
  let c = Party.consumer "researcher" in
  let b1 = Party.broker "text-broker" in
  let b2 = Party.broker "diagram-broker" in
  let s1 = Party.producer "uspto-text" in
  let s2 = Party.producer "drawings-inc" in
  let t name = Party.trusted name in
  let spec =
    Spec.make_exn
      ~priorities:
        [
          (b1, { Spec.deal = "text-sale"; side = Spec.Right });
          (b2, { Spec.deal = "diagram-sale"; side = Spec.Right });
        ]
      [
        Spec.sale ~id:"text-buy" ~buyer:b1 ~seller:s1 ~via:(t "esc1")
          ~price:(Asset.dollars 8) ~good:"patent-text";
        Spec.sale ~id:"text-sale" ~buyer:c ~seller:b1 ~via:(t "esc2")
          ~price:(Asset.dollars 10) ~good:"patent-text";
        Spec.sale ~id:"diagram-buy" ~buyer:b2 ~seller:s2 ~via:(t "esc3")
          ~price:(Asset.dollars 16) ~good:"patent-diagrams";
        Spec.sale ~id:"diagram-sale" ~buyer:c ~seller:b2 ~via:(t "esc4")
          ~price:(Asset.dollars 20) ~good:"patent-diagrams";
      ]
  in
  Format.printf "%a@.@." Spec.pp spec;
  let analysis = Feasibility.analyze spec in
  Format.printf "@[<v>%a" Trust_core.Reduce.pp_outcome analysis.Feasibility.outcome;
  Option.iter (Format.printf "@,%a" Trust_core.Execution.pp) analysis.Feasibility.sequence;
  Format.printf "@]@.@.";
  print_endline "blocking conjunctions (who is stuck):";
  List.iter
    (fun p -> Printf.printf "  %s\n" (Party.to_string p))
    (Feasibility.blocking_conjunctions analysis);
  rule ();
  print_endline "rescue by indemnities (section 6):";
  print_newline ();
  (match Feasibility.rescue_with_indemnities spec with
  | None -> print_endline "no rescue found"
  | Some rescue ->
    List.iter (fun plan -> Format.printf "%a@." Indemnity.pp_plan plan) rescue.Feasibility.plans;
    Printf.printf "\ntotal escrowed: %s — exchange now feasible\n"
      (Report.Table.money (Feasibility.total_indemnity rescue));
    (* run it, with the diagram broker absconding after buying *)
    let plan =
      match rescue.Feasibility.plans with [ plan ] -> plan | _ -> failwith "one plan expected"
    in
    rule ();
    print_endline "simulated run with the covered broker defecting mid-way:";
    print_newline ();
    let covered_piece = List.hd plan.Indemnity.offers in
    let defector = covered_piece.Indemnity.offered_by in
    (match
       Trust_sim.Harness.adversarial_run ~plan
         ~defectors:[ (defector, Trust_sim.Harness.Partial 2) ]
         spec
     with
    | Error e -> print_endline e
    | Ok result ->
      Format.printf "%a@.@." Trust_sim.Engine.pp_result result;
      Format.printf "%a@." Trust_sim.Audit.pp_report
        (Trust_sim.Audit.audit spec ~plan ~defectors:[ defector ] result)));
  rule ();
  print_endline "figure 7: ordering indemnities over three documents";
  print_newline ();
  let fig7 = Workload.Scenarios.fig7 in
  let owner = Workload.Scenarios.fig7_consumer in
  Format.printf "worst ordering: %a@." Indemnity.pp_plan (Indemnity.plan_worst fig7 ~owner);
  Format.printf "greedy ordering: %a@." Indemnity.pp_plan (Indemnity.plan_greedy fig7 ~owner)
