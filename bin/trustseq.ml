(* trustseq — analyze, sequence, indemnify, simulate and render
   distributed-commerce exchange problems written in the trust DSL. *)

open Cmdliner
open Exchange
module Feasibility = Trust_core.Feasibility
module Reduce = Trust_core.Reduce
module Sequencing = Trust_core.Sequencing
module Execution = Trust_core.Execution
module Indemnity = Trust_core.Indemnity
module Cost = Trust_core.Cost
module Obs = Trust_obs.Obs

let version = Trustseq_version.Version.v

let load ?obs ?parent path =
  match path with
  | "-" -> Trust_lang.Elaborate.from_string ?obs ?parent ~file:"<stdin>" (In_channel.input_all stdin)
  | path -> Trust_lang.Elaborate.from_file ?obs ?parent path

(* One message for every bad format flag across trace, trace-stats,
   trace-diff and the --trace-format flags; always exit 2, before any
   pipeline work runs. *)
let invalid_format_die s valid =
  Printf.eprintf "trustseq: invalid format %S (valid formats: %s)\n" s
    (String.concat ", " valid);
  exit 2

let trace_format_or_die s =
  match Obs.format_of_string s with
  | Some fmt -> fmt
  | None -> invalid_format_die s Obs.format_names

(* Shared by `trace` and the --trace flags: render and land a trace.
   '-' means stdout — batch refuses it so the deterministic snapshot
   stays uncontaminated. Formats are parsed as plain strings, not
   [Arg.enum], so a typo gets the shared exit-2 message above instead
   of cmdliner's 124. *)
let trace_format_arg ~default doc_ctx =
  Arg.(
    value & opt string default
    & info [ "format"; "trace-format" ] ~docv:"FMT"
        ~doc:
          (Printf.sprintf
             "Trace export format for %s: $(b,jsonl) (one span/event object per line), \
              $(b,chrome) (trace-event JSON array, loadable in Perfetto or chrome://tracing), \
              $(b,tree) (human-readable span tree) or $(b,folded) (flamegraph stacks, one \
              $(i,stack self-vt) line per span). Case-insensitive."
             doc_ctx))

let land_output path rendered =
  match path with
  | "-" -> print_string rendered
  | path -> (
    try Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc rendered)
    with Sys_error m ->
      prerr_endline ("trustseq: " ^ m);
      exit 2)

let write_trace fmt path traces =
  land_output path (Obs.export ~producer:("trustseq " ^ version) fmt traces)

let or_die = function
  | Ok v -> v
  | Error message ->
    prerr_endline ("trustseq: " ^ message);
    exit 2

(* The run flags batch and serve share, one rule each: a rate lies in
   [0, 1] (a drop rate of 1 still settles: the retry runs clean) and a
   ring capacity is non-negative. NaN is refused with the rest. *)
let check_run_flags ~drop_rate ~trace_sample ~trace_ring =
  let die message =
    prerr_endline ("trustseq: " ^ message);
    exit 2
  in
  let rate flag r = if not (r >= 0. && r <= 1.) then die (flag ^ " must lie in [0, 1]") in
  rate "--drop-rate" drop_rate;
  rate "--trace-sample" trace_sample;
  if trace_ring < 0 then die "--trace-ring must be non-negative"

let read_source file =
  match file with
  | "-" -> In_channel.input_all stdin
  | path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | src -> src
    | exception Sys_error m ->
      prerr_endline ("trustseq: " ^ m);
      exit 2)

let file_arg =
  let doc = "Exchange specification file in the trust DSL ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let party_of_spec spec name =
  match List.find_opt (fun p -> String.equal (Party.name p) name) (Spec.parties spec) with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "no party named %s in the specification" name)

(* check *)

let check_cmd =
  let run file verbose =
    let spec = or_die (load file) in
    let analysis = Feasibility.analyze spec in
    if verbose then Format.printf "%a@.@." Reduce.pp_outcome analysis.Feasibility.outcome;
    match analysis.Feasibility.outcome.Reduce.verdict with
    | Reduce.Feasible ->
      print_endline "FEASIBLE";
      0
    | Reduce.Stuck { remaining } ->
      Printf.printf "INFEASIBLE (%d edges stuck)\n" (List.length remaining);
      List.iter
        (fun owner -> Printf.printf "  blocking conjunction: %s\n" (Party.to_string owner))
        (Feasibility.blocking_conjunctions analysis);
      1
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the reduction deletion log.")
  in
  Cmd.v
    (Cmd.info "check"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 — feasible.";
           `P "1 — infeasible (reduction got stuck).";
           `P
             "2 — the file failed to load/parse/elaborate (malformed command lines get \
              cmdliner's own 124).";
         ]
       ~doc:"Decide feasibility by sequencing-graph reduction (exit 1 if stuck).")
    Term.(const run $ file_arg $ verbose)

(* lint *)

let lint_cmd =
  let module Lint = Trust_analyze.Lint in
  let module Diagnostic = Trust_analyze.Diagnostic in
  let run files format werror quick static =
    let deep = not quick in
    let static = static && not quick in
    let lint_one = function
      | "-" -> Lint.lint_source ~file:"<stdin>" ~static ~deep (In_channel.input_all stdin)
      | path -> Lint.lint_file ~static ~deep path
    in
    let diagnostics = Diagnostic.sort (List.concat_map lint_one files) in
    let rendered = Lint.render format diagnostics in
    (match format with
    | Lint.Human -> if diagnostics <> [] then print_endline rendered
    | Lint.Json | Lint.Sarif -> print_endline rendered);
    Lint.exit_status ~werror diagnostics
  in
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Specification files to lint ('-' for stdin).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("human", Lint.Human); ("json", Lint.Json); ("sarif", Lint.Sarif) ]) Lint.Human
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: human, json or sarif (2.1.0).")
  in
  let werror =
    Arg.(
      value & flag
      & info [ "Werror" ] ~doc:"Treat warnings as errors (info diagnostics never gate).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Structural rules only — skip the feasibility-based rules (TL006/TL007/TL009/TL012) \
             and the static exposure pass (TL015-TL017). This is what the serve admission gate \
             runs.")
  in
  let static =
    Arg.(
      value
      & opt bool true
      & info [ "static-exposure" ] ~docv:"BOOL"
          ~doc:
            "Run the static exposure pass (TL015 deadline races, TL016 unprovable single-transfer bound, \
             TL017 counterexample schedule) over the synthesized sequence. On by default; \
             $(b,--quick) skips it regardless.")
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — clean: no error-severity diagnostics (info never gates, even under --Werror).";
      `P "1 — diagnostics gated the lint: errors, or warnings under --Werror.";
      `P
        "2 — unreadable input or lex/parse failure (TL010); malformed command lines get \
         cmdliner's own 124.";
      `S "DIAGNOSTICS";
      `P "Stable codes TL001-TL017; see docs/LINT.md for the catalogue with examples.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~man
       ~doc:
         "Lint specifications: structural smells, contradictory ordering constraints, \
          infeasibility with a minimal stuck-kernel counterexample, cross-deal conflicts, \
          static exposure bounds, and indemnity-rescue hints.")
    Term.(const run $ files $ format $ werror $ quick $ static)

(* analyze *)

let analyze_cmd =
  let module Absint = Trust_analyze.Absint in
  let module Static_exposure = Trust_analyze.Static_exposure in
  let module Conflict = Trust_analyze.Conflict in
  let module Diagnostic = Trust_analyze.Diagnostic in
  let run file =
    let spec = or_die (load file) in
    let no_loc _ = None in
    let no_loc2 _ _ = None in
    let conflicts = Conflict.structural ~deal_loc:no_loc ~split_loc:no_loc2 spec in
    let analysis = Feasibility.analyze spec in
    let conflicts =
      conflicts
      @
      match analysis.Feasibility.sequence with
      | Some seq -> Conflict.deadline_races ~deal_loc:no_loc seq
      | None -> []
    in
    let result = Static_exposure.of_analysis analysis in
    Report.Table.section (Printf.sprintf "static exposure: %s" file);
    (match result.Static_exposure.verdict with
    | Static_exposure.Vacuous ->
      print_endline "vacuous — the spec is infeasible as written; nothing runs, nothing is at risk";
      print_endline "(run `trustseq lint` for the stuck kernel and rescue hints)"
    | _ ->
      Report.Table.print
        ~header:[ "principal"; "bound"; "honest"; "worst"; "defector"; "verdict" ]
        (List.map
           (fun (i : Absint.interval) ->
             [
               Party.name i.Absint.i_party;
               Report.Table.money i.Absint.i_bound;
               Report.Table.money i.Absint.i_lo;
               Report.Table.money i.Absint.i_hi;
               (match i.Absint.i_witness.Absint.w_defector with
               | Some q -> Party.name q
               | None -> "-");
               (if Absint.proved i then "proved" else "REFUTED");
             ])
           result.Static_exposure.intervals);
      Printf.printf "\n%d steps analyzed; verdict: %s\n"
        result.Static_exposure.steps
        (Static_exposure.verdict_label result.Static_exposure.verdict);
      List.iter
        (fun (i : Absint.interval) ->
          Printf.printf "\ncounterexample for %s (%s at risk, bound %s):\n"
            (Party.name i.Absint.i_party)
            (Report.Table.money i.Absint.i_witness.Absint.w_at_risk)
            (Report.Table.money i.Absint.i_bound);
          List.iter print_endline
            (Static_exposure.schedule_notes i.Absint.i_witness))
        (Static_exposure.refuted result));
    if conflicts <> [] then begin
      print_newline ();
      Report.Table.section "cross-deal conflicts";
      print_endline (Diagnostic.render_human (Diagnostic.sort conflicts))
    end;
    if
      result.Static_exposure.verdict = Static_exposure.Refuted
      || conflicts <> []
    then 1
    else 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 — the single-transfer bound is proved for every principal and no cross-deal conflicts.";
           `P "1 — the bound was refuted (counterexample schedule printed) or conflicts were found.";
           `P "2 — the file failed to load/parse/elaborate.";
           `S "DESCRIPTION";
           `P
             "Abstract interpretation over the synthesized execution sequence: per principal, a \
              worst-case exposure interval across every legal lockstep interleaving and every \
              single-party defection pattern, checked against the paper's single-transfer bound. \
              Also reports cross-deal conflicts: double spends (TL013), over-pledged indemnities \
              (TL014) and deadline races (TL015).";
         ]
       ~doc:
         "Statically prove (or refute, with a counterexample schedule) the single-transfer \
          exposure bound, and detect cross-deal conflicts.")
    Term.(const run $ file_arg)

(* sequence *)

let sequence_cmd =
  let run file =
    let spec = or_die (load file) in
    let analysis = Feasibility.analyze spec in
    match analysis.Feasibility.sequence with
    | Some seq ->
      Format.printf "%a@." Execution.pp seq;
      0
    | None ->
      prerr_endline "trustseq: infeasible exchange, no execution sequence exists";
      1
  in
  Cmd.v
    (Cmd.info "sequence" ~doc:"Print the protective execution sequence of a feasible exchange.")
    Term.(const run $ file_arg)

(* indemnify *)

let indemnify_cmd =
  let run file owner =
    let spec = or_die (load file) in
    match owner with
    | Some name ->
      let party = or_die (party_of_spec spec name) in
      if not (Indemnity.splittable spec ~owner:party) then begin
        prerr_endline "trustseq: that conjunction cannot be split by indemnities (§6)";
        1
      end
      else begin
        let greedy = Indemnity.plan_greedy spec ~owner:party in
        let worst = Indemnity.plan_worst spec ~owner:party in
        Format.printf "%a@." Indemnity.pp_plan greedy;
        Format.printf "(worst ordering would cost %a)@." Asset.pp_money worst.Indemnity.total;
        0
      end
    | None -> (
      match Feasibility.rescue_with_indemnities spec with
      | Some rescue ->
        List.iter (fun plan -> Format.printf "%a@." Indemnity.pp_plan plan) rescue.Feasibility.plans;
        Format.printf "total indemnity: %a — exchange now FEASIBLE@." Asset.pp_money
          (Feasibility.total_indemnity rescue);
        0
      | None ->
        prerr_endline "trustseq: no indemnity plan makes this exchange feasible";
        1)
  in
  let owner =
    Arg.(
      value
      & opt (some string) None
      & info [ "owner" ] ~docv:"PARTY"
          ~doc:"Plan indemnities for this party's conjunction only (default: automatic rescue).")
  in
  Cmd.v
    (Cmd.info "indemnify" ~doc:"Compute minimal indemnities that enable an infeasible exchange.")
    Term.(const run $ file_arg $ owner)

(* simulate *)

let defection_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ name ] | [ name; "silent" ] -> Ok (name, Trust_sim.Harness.Silent)
    | [ name; mode ] -> (
      match String.split_on_char '=' mode with
      | [ "partial"; n ] -> (
        match int_of_string_opt n with
        | Some n -> Ok (name, Trust_sim.Harness.Partial n)
        | None -> Error (`Msg "partial=N needs an integer"))
      | _ -> Error (`Msg "defection is NAME[:silent|:partial=N]"))
    | _ -> Error (`Msg "defection is NAME[:silent|:partial=N]")
  in
  let print ppf (name, mode) =
    match mode with
    | Trust_sim.Harness.Silent -> Format.fprintf ppf "%s:silent" name
    | Trust_sim.Harness.Partial n -> Format.fprintf ppf "%s:partial=%d" name n
  in
  Arg.conv (parse, print)

let simulate_cmd =
  let run file defections rescue verbose trace_out trace_format =
    let trace_format = trace_format_or_die trace_format in
    let obs = match trace_out with Some _ -> Obs.create () | None -> Obs.null in
    let status =
      Obs.with_span obs ~phase:"pipeline" "trustseq.simulate" (fun root ->
          let spec = or_die (load ~obs ~parent:root file) in
          let synthesis = Feasibility.synthesize ~rescue spec in
          let plan = synthesis.Feasibility.plan in
          let defectors =
            List.map (fun (name, mode) -> (or_die (party_of_spec spec name), mode)) defections
          in
          match Trust_sim.Harness.cast_of ~obs ~parent:root ~defectors synthesis with
          | Error message ->
            prerr_endline ("trustseq: " ^ message);
            1
          | Ok cast ->
            let result = Trust_sim.Harness.run_cast ~obs ~parent:root cast in
            if verbose then Format.printf "%a@.@." Trust_sim.Engine.pp_result result;
            let report =
              Trust_sim.Audit.audit ~obs ~parent:root spec ?plan
                ~defectors:(List.map fst defectors) result
            in
            Format.printf "%a@." Trust_sim.Audit.pp_report report;
            if report.Trust_sim.Audit.honest_all_acceptable then 0 else 1)
    in
    Option.iter (fun path -> write_trace trace_format path [ obs ]) trace_out;
    status
  in
  let defections =
    Arg.(
      value & opt_all defection_conv []
      & info [ "defect" ] ~docv:"PARTY[:MODE]"
          ~doc:"Make a party defect: ':silent' (default) or ':partial=N'. Repeatable.")
  in
  let rescue =
    Arg.(value & flag & info [ "indemnify" ] ~doc:"Apply the automatic indemnity rescue first.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the delivery log.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a structured trace of the whole run (parse through audit) and write it to \
             $(docv) ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the synthesized protocol in the discrete-event runtime and audit outcomes.")
    Term.(
      const run $ file_arg $ defections $ rescue $ verbose $ trace_out
      $ trace_format_arg ~default:"jsonl" "--trace")

(* render *)

let render_cmd =
  let run file kind reduced format =
    let spec = or_die (load file) in
    (match kind with
    | `Interaction -> print_string (Interaction.to_dot (Interaction.of_spec spec))
    | `Sequencing -> (
      let g = Sequencing.build spec in
      if reduced then ignore (Reduce.run g);
      match format with
      | `Dot -> print_string (Sequencing.to_dot g)
      | `Ascii -> print_string (Sequencing.to_ascii g)));
    0
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("interaction", `Interaction); ("sequencing", `Sequencing) ]) `Sequencing
      & info [ "graph" ] ~docv:"KIND" ~doc:"Which graph to render: interaction or sequencing.")
  in
  let reduced =
    Arg.(value & flag & info [ "reduced" ] ~doc:"Render the graph after reduction (Figs. 5-6).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("ascii", `Ascii) ]) `Dot
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: dot (Graphviz) or ascii (terminal).")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Emit the interaction or sequencing graph as Graphviz DOT or ASCII.")
    Term.(const run $ file_arg $ kind $ reduced $ format)

(* cost *)

let cost_cmd =
  let run file =
    let spec = or_die (load file) in
    let describe label spec' =
      match (Feasibility.analyze spec').Feasibility.sequence with
      | Some seq -> (label, Format.asprintf "%a" Cost.pp_tally (Cost.tally_sequence seq))
      | None -> (label, "infeasible")
    in
    let rows =
      [
        describe "pairwise intermediaries" spec;
        describe "full direct trust" (Cost.with_all_direct_trust spec);
        ( "universal intermediary",
          Format.asprintf "%a" Cost.pp_tally (Cost.universal_tally spec) );
      ]
    in
    print_string (Report.Table.kv rows);
    0
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Compare message costs across trust regimes (paper section 8).")
    Term.(const run $ file_arg)

(* exposure *)

let exposure_cmd =
  let module Exposure = Trust_sim.Exposure in
  let run file rescue defections =
    let spec = or_die (load file) in
    let defectors =
      List.map (fun (name, mode) -> (or_die (party_of_spec spec name), mode)) defections
    in
    match Trust_sim.Harness.cast_of ~defectors (Feasibility.synthesize ~rescue spec) with
    | Error message ->
      prerr_endline ("trustseq: " ^ message);
      2
    | Ok cast ->
      let result = Trust_sim.Harness.run_cast cast in
      (* the ledger, like the audit, works over the split spec — the
         accepted indemnities redefine the deals (§6) *)
      let ledger =
        Exposure.of_result ?plan:cast.Trust_sim.Harness.plan
          ~defectors:(List.map fst defectors) cast.Trust_sim.Harness.spec result
      in
      print_string
        (Report.Table.render
           ~header:[ "party"; "bound"; "peak at-risk"; "peak escrow"; "deposits"; "risk ticks" ]
           (List.map
              (fun (l : Exposure.party_ledger) ->
                [
                  Party.to_string l.Exposure.party;
                  Report.Table.money l.Exposure.bound;
                  Report.Table.money l.Exposure.peak_at_risk;
                  Report.Table.money l.Exposure.peak_in_escrow;
                  Report.Table.money l.Exposure.peak_deposits;
                  string_of_int l.Exposure.risk_ticks;
                ])
              ledger.Exposure.parties));
      let timeline_rows =
        List.concat_map
          (fun (l : Exposure.party_ledger) ->
            List.map
              (fun (s : Exposure.sample) ->
                ( s.Exposure.at,
                  [
                    string_of_int s.Exposure.at;
                    Party.to_string l.Exposure.party;
                    Report.Table.money s.Exposure.at_risk;
                    Report.Table.money s.Exposure.in_escrow;
                    Report.Table.money s.Exposure.deposits;
                    string_of_int s.Exposure.goods_out;
                  ] ))
              l.Exposure.timeline)
          ledger.Exposure.parties
      in
      let timeline_rows =
        (* change ticks only, chronologically, parties interleaved in
           spec order within a tick (stable sort) *)
        List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) timeline_rows)
      in
      if timeline_rows <> [] then begin
        print_newline ();
        print_string
          (Report.Table.render
             ~header:[ "t"; "party"; "at-risk"; "escrow"; "deposits"; "goods out" ]
             timeline_rows)
      end;
      if ledger.Exposure.agents <> [] then begin
        print_newline ();
        print_string
          (Report.Table.render
             ~header:[ "custody at"; "peak"; "final" ]
             (List.map
                (fun (a : Exposure.agent_ledger) ->
                  [
                    Party.to_string a.Exposure.agent;
                    Report.Table.money a.Exposure.peak_custody;
                    Report.Table.money a.Exposure.final_custody;
                  ])
                ledger.Exposure.agents))
      end;
      List.iter
        (fun v -> Format.printf "violation: %a@." Exposure.pp_violation v)
        ledger.Exposure.violations;
      if ledger.Exposure.violations = [] then 0 else 1
  in
  let rescue =
    Arg.(value & flag & info [ "indemnify" ] ~doc:"Apply the automatic indemnity rescue first.")
  in
  let defections =
    Arg.(
      value & opt_all defection_conv []
      & info [ "defect" ] ~docv:"PARTY[:MODE]"
          ~doc:"Make a party defect: ':silent' (default) or ':partial=N'. Repeatable.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the synthesized protocol and folds the delivery log into the exposure ledger: \
         per-principal peaks and timelines of at-risk value (in other principals' hands, \
         unreciprocated), escrow (custody at genuine trusted agents) and §6 indemnity \
         deposits, plus per-holder custody peaks. The §5 invariant — an honest principal's \
         at-risk value never exceeds its largest single committed transfer, and returns to \
         zero by the end of the run — is checked tick by tick.";
      `S Manpage.s_exit_status;
      `P "0 — no invariant violations (the expected result for honest feasible runs).";
      `P "1 — at least one violation (printed with its party and tick).";
      `P "2 — the file failed to load or the exchange is infeasible.";
    ]
  in
  Cmd.v
    (Cmd.info "exposure" ~man
       ~doc:"Print the exposure ledger: who was at risk, for how much, for how long.")
    Term.(const run $ file_arg $ rescue $ defections)

(* route *)

let route_cmd =
  let run file simulate =
    let web = or_die (Trust_lang.Elaborate.web_from_string (read_source file)) in
    let module Routing = Trust_core.Routing in
    let trusts =
      List.map (fun (a, b) -> Routing.{ truster = a; trustee = b }) web.Trust_lang.Elaborate.trusts
    in
    let requests =
      List.map
        (fun (id, buyer, good, seller, price) -> Routing.{ id; buyer; seller; price; good })
        web.Trust_lang.Elaborate.requests
    in
    match Routing.connect ~relays:web.Trust_lang.Elaborate.relays ~trusts requests with
    | Error message ->
      prerr_endline ("trustseq: " ^ message);
      1
    | Ok routed ->
      List.iter
        (fun (id, route) -> Format.printf "%-10s %a@." id Routing.pp_routing route)
        routed.Routing.routes;
      print_newline ();
      print_string (Trust_lang.Printer.to_string routed.Routing.spec);
      print_newline ();
      let spec = routed.Routing.spec in
      let synthesis = Feasibility.synthesize ~shared:true ~rescue:true spec in
      let plan = synthesis.Feasibility.plan in
      let verdict =
        match (plan, synthesis.Feasibility.analysis.Feasibility.sequence) with
        | Some plan, _ ->
          Format.printf "%a@." Indemnity.pp_plan plan;
          Printf.sprintf "FEASIBLE with %s of indemnities"
            (Report.Table.money plan.Indemnity.total)
        | None, Some _ -> "FEASIBLE"
        | None, None -> "INFEASIBLE"
      in
      print_endline verdict;
      if simulate && verdict <> "INFEASIBLE" then begin
        match Trust_sim.Harness.cast_of synthesis with
        | Error message ->
          prerr_endline ("trustseq: " ^ message);
          1
        | Ok cast ->
          let result = Trust_sim.Harness.run_cast cast in
          print_newline ();
          Format.printf "%a@." Trust_sim.Audit.pp_report
            (Trust_sim.Audit.audit spec ?plan result);
          0
      end
      else if verdict = "INFEASIBLE" then 1
      else 0
  in
  let simulate =
    Arg.(value & flag & info [ "simulate" ] ~doc:"Also run the routed exchange honestly.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Synthesize intermediaries from a trust web: a DSL file with trust edges, relay \
          brokers and requests (section 9).")
    Term.(const run $ file_arg $ simulate)

(* trace / trace-stats *)

(* The whole pipeline — parse, elaborate, lint, reduce, route, simulate,
   verify, audit — as spans on one trace; shared by `trace` and
   `trace-stats`. *)
let traced_pipeline obs ~file src =
  Obs.with_span obs ~phase:"pipeline" "trustseq.trace" (fun root ->
      match Trust_lang.Elaborate.from_string ~obs ~parent:root ~file src with
      | Error message ->
        prerr_endline ("trustseq: " ^ message);
        2
      | Ok spec -> (
        (* every phase lands on the trace, whatever it finds *)
        ignore (Trust_analyze.Lint.check_spec ~obs ~parent:root ~file spec);
        (* infeasible specs get the automatic indemnity rescue so the
           downstream phases still appear on the trace *)
        let synthesis = Feasibility.synthesize ~obs ~parent:root ~rescue:true spec in
        let plan = synthesis.Feasibility.plan in
        match Trust_sim.Harness.cast_of ~obs ~parent:root synthesis with
        | Error message ->
          prerr_endline ("trustseq: " ^ message);
          1
        | Ok cast ->
          let result = Trust_sim.Harness.run_cast ~obs ~parent:root cast in
          ignore
            (Trust_analyze.Verifier.verify_spec ~obs ~parent:root
               cast.Trust_sim.Harness.spec);
          let report = Trust_sim.Audit.audit ~obs ~parent:root spec ?plan result in
          if report.Trust_sim.Audit.honest_all_acceptable then 0 else 1))

let trace_cmd =
  let run file format out =
    let format = trace_format_or_die format in
    let src = read_source file in
    let obs = Obs.create () in
    let status = traced_pipeline obs ~file src in
    write_trace format out [ obs ];
    status
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) (default stdout).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the whole pipeline over the specification — parse, elaborate, lint, reduce \
         (sequencing-graph reduction with its per-rule profiler), route (protocol assembly), \
         simulate, verify and audit — recording every phase as a span on one structured trace, \
         then renders the trace.";
      `P
        "All timestamps are virtual (a per-trace monotonic counter), so the output is \
         byte-identical run to run; see docs/OBS.md for the span model and determinism \
         contract.";
      `S Manpage.s_exit_status;
      `P "0 — the traced honest run audited clean.";
      `P "1 — infeasible (even after indemnity rescue) or the audit found an unacceptable outcome.";
      `P "2 — the file failed to load/parse/elaborate.";
    ]
  in
  Cmd.v
    (Cmd.info "trace" ~man
       ~doc:
         "Trace the full pipeline (parse to audit) and export spans as JSONL, Chrome JSON, a \
          tree or folded flamegraph stacks.")
    Term.(const run $ file_arg $ trace_format_arg ~default:"tree" "the trace" $ out)

(* trace-stats *)

let trace_stats_cmd =
  let module Analysis = Trust_obs.Analysis in
  let run file from_trace format out =
    let format =
      match String.lowercase_ascii format with
      | "table" -> `Table
      | "folded" -> `Folded
      | s -> invalid_format_die s [ "table"; "folded" ]
    in
    let analysis, status =
      if from_trace then
        match Analysis.of_jsonl (read_source file) with
        | Ok analysis -> (analysis, 0)
        | Error m ->
          Printf.eprintf "trustseq: %s: %s\n" file m;
          exit 2
      else begin
        let src = read_source file in
        let obs = Obs.create () in
        let status = traced_pipeline obs ~file src in
        (Analysis.of_traces [ obs ], status)
      end
    in
    let rendered =
      match format with
      | `Folded -> Analysis.folded analysis
      | `Table ->
        let buf = Buffer.create 1024 in
        Buffer.add_string buf
          (Report.Table.kv
             [
               ("spans", string_of_int (Analysis.span_count analysis));
               ("events", string_of_int (Analysis.event_count analysis));
               ("sessions", string_of_int (List.length (Analysis.sessions analysis)));
             ]);
        Buffer.add_char buf '\n';
        Buffer.add_string buf
          (Report.Table.render
             ~header:[ "phase"; "spans"; "events"; "total vt"; "self vt" ]
             (List.map
                (fun ps ->
                  [
                    ps.Analysis.ps_phase;
                    string_of_int ps.Analysis.ps_spans;
                    string_of_int ps.Analysis.ps_events;
                    string_of_int ps.Analysis.ps_total_vt;
                    string_of_int ps.Analysis.ps_self_vt;
                  ])
                (Analysis.phase_stats analysis)));
        (match Analysis.critical_path analysis with
        | [] -> ()
        | path ->
          Buffer.add_string buf "\ncritical path (longest span chain, virtual time):\n";
          List.iteri
            (fun depth st ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s/%s [%d,%d) self %d\n"
                   (String.make (2 * depth + 2) ' ')
                   st.Analysis.st_phase st.Analysis.st_name st.Analysis.st_start
                   st.Analysis.st_stop st.Analysis.st_self))
            path);
        Buffer.contents buf
    in
    land_output out rendered;
    status
  in
  let from_trace =
    Arg.(
      value & flag
      & info [ "from-trace" ]
          ~doc:
            "Treat $(i,FILE) as a JSONL trace export (from $(b,trace --format jsonl) or \
             $(b,batch --trace)) instead of a specification to run.")
  in
  let format =
    Arg.(
      value & opt string "table"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,table) (per-phase statistics and the critical path) or \
             $(b,folded) (flamegraph stacks, one $(i,stack self-vt) line per span). \
             Case-insensitive.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the analysis to $(docv) (default stdout).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the same traced pipeline as $(b,trustseq trace) (or re-parses an existing JSONL \
         export with $(b,--from-trace)) and prints span analytics: per-phase span/event counts \
         and total/self virtual time, the critical path, or folded stacks ready for \
         $(b,flamegraph.pl) / speedscope.";
      `P
        "All statistics are in virtual time, so the output is byte-identical run to run and at \
         any $(b,batch --jobs).";
      `S Manpage.s_exit_status;
      `P "0 — analysis printed (with --from-trace, the export parsed).";
      `P "1 — the traced run was infeasible or audited unacceptably (stats still printed).";
      `P "2 — unreadable input, malformed JSONL, or an invalid --format/--out.";
    ]
  in
  Cmd.v
    (Cmd.info "trace-stats" ~man
       ~doc:"Analyse a traced pipeline run: per-phase statistics, critical path, flamegraph stacks.")
    Term.(const run $ file_arg $ from_trace $ format $ out)

(* trace-diff *)

let trace_diff_cmd =
  let module Analysis = Trust_obs.Analysis in
  let run left right out =
    if left = "-" && right = "-" then begin
      prerr_endline "trustseq: only one of the two traces can come from stdin";
      exit 2
    end;
    let parse path =
      match Analysis.of_jsonl (read_source path) with
      | Ok analysis -> analysis
      | Error m ->
        Printf.eprintf "trustseq: %s: %s\n" path m;
        exit 2
    in
    let diff = Analysis.diff (parse left) (parse right) in
    land_output out (Analysis.render_diff diff);
    if diff = [] then 0 else 1
  in
  let left =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"First JSONL trace export ('-' for stdin).")
  in
  let right =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Second JSONL trace export ('-' for stdin).")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the diff to $(docv) (default stdout).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compares two JSONL trace exports structurally. Spans are matched by session and by \
         their name path from the root (plus an occurrence index), so renumbered span ids \
         alone produce no noise; differing phases, virtual-time ranges, attributes or events \
         are reported per span, one line each ($(b,-) only in A, $(b,+) only in B, $(b,~) \
         changed).";
      `S Manpage.s_exit_status;
      `P "0 — structurally identical (empty diff).";
      `P "1 — the traces differ.";
      `P "2 — unreadable input, malformed JSONL, or an invalid --out.";
    ]
  in
  Cmd.v
    (Cmd.info "trace-diff" ~man ~doc:"Structurally diff two JSONL trace exports.")
    Term.(const run $ left $ right $ out)

(* trace-decode *)

let trace_decode_cmd =
  let module Ring = Trust_obs.Ring in
  let module Client = Trust_daemon.Client in
  let run file connect timeout format out =
    let format = trace_format_or_die format in
    let die m =
      prerr_endline ("trustseq: " ^ m);
      exit 2
    in
    let decode dump = match Ring.decode dump with Ok d -> d | Error m -> die m in
    let sessions, stats =
      match (connect, file) with
      | Some _, Some _ -> die "trace-decode takes a dump FILE or --connect, not both"
      | None, None -> die "trace-decode needs a dump FILE or --connect ADDR"
      | Some addr, None -> (
        match Client.connect ~timeout addr with
        | Error e -> die e
        | Ok client ->
          (* one answer carries what fits a frame: drain until empty *)
          let decoded = Client.trace_sessions client in
          Client.close client;
          (match decoded with Ok d -> d | Error e -> die e))
      | None, Some "-" -> decode (In_channel.input_all stdin)
      | None, Some path -> (
        try decode (In_channel.with_open_bin path In_channel.input_all) with Sys_error m -> die m)
    in
    land_output out (Ring.export ~producer:("trustseq " ^ version) format sessions);
    (* the keep tally is the operator's first question — why is each
       of these sessions here? — so it rides on stderr with the rest
       of the annotations *)
    let tally = Hashtbl.create 8 in
    List.iter
      (fun (s : Ring.session) ->
        let k = Ring.keep_label s.Ring.s_keep in
        Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
      sessions;
    let kept =
      String.concat ", "
        (List.filter_map
           (fun k ->
             Option.map (Printf.sprintf "%s %d" k) (Hashtbl.find_opt tally k))
           [ "sampled"; "violation"; "retry"; "expiry"; "lint" ])
    in
    let drop_ratio =
      if stats.Ring.d_written = 0 then 0.
      else float_of_int stats.Ring.d_dropped /. float_of_int stats.Ring.d_written
    in
    Printf.eprintf
      "trace-decode: %d sessions (%s) from %d shards, %d records written, %d dropped (%.1f%% drop ratio)\n"
      stats.Ring.d_sessions
      (if kept = "" then "none kept" else kept)
      stats.Ring.d_shards stats.Ring.d_written stats.Ring.d_dropped (100. *. drop_ratio);
    (* ring pressure is otherwise invisible: eviction on wrap is
       silent by design, so say explicitly when the
       newest-complete-suffix decode had to discard wrapped sessions
       (grow --trace-ring or lower --trace-sample if this matters) *)
    if stats.Ring.d_skipped > 0 then
      Printf.eprintf
        "trace-decode: warning: %d wrapped session%s discarded (ring evicted their oldest records); consider a larger ring or a lower sample rate\n"
        stats.Ring.d_skipped
        (if stats.Ring.d_skipped = 1 then "" else "s");
    0
  in
  let file =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Binary ring dump ('-' for stdin) — from $(b,batch --ring-dump-out) or a daemon's \
             $(b,trace) wire frame.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Drain a live daemon's trace ring instead of reading a file: $(b,unix:PATH), \
             $(b,tcp:HOST:PORT), or a bare socket path. Each drain returns the records kept \
             since the previous one.")
  in
  let timeout =
    Arg.(
      value & opt float 10.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Receive timeout for --connect.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the rendered trace to $(docv) (default stdout).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Decodes the compact binary record stream of the production trace ring \
         (docs/OBS.md, \"Production tracing\") and re-renders it through the standard \
         exporters — the output is byte-compatible with what $(b,batch --trace) or \
         $(b,trace) would have produced for the same sessions, so it pipes straight into \
         $(b,trace-stats --from-trace -) and $(b,trace-diff). Sessions decode sorted by id \
         (a canonical order whatever --jobs produced them); a session whose start record \
         was evicted on wrap is skipped whole — dumps always parse as the newest complete \
         suffix of what was recorded.";
      `P
        "A one-line summary lands on stderr: session count by keep reason (head-sampled vs \
         tail-promoted violation/retry/expiry/lint), shard count, and the ring's lifetime \
         written/dropped record counters with the drop ratio. When the decode had to discard \
         wrapped sessions (their oldest records were evicted), a warning says how many — \
         that is the signal to grow $(b,--trace-ring) or lower the sample rate.";
      `S Manpage.s_exit_status;
      `P "0 — decoded and rendered.";
      `P "2 — unreadable input, a corrupt dump, connection failure, or bad flags.";
    ]
  in
  Cmd.v
    (Cmd.info "trace-decode" ~man
       ~doc:"Decode a binary trace-ring dump (file or live daemon) into any trace export format.")
    Term.(const run $ file $ connect $ timeout $ trace_format_arg ~default:"jsonl" "the decoded trace" $ out)

(* mine *)

let mine_cmd =
  let module Ring = Trust_obs.Ring in
  let module Mine = Trust_obs.Mine in
  let module Analysis = Trust_obs.Analysis in
  let module Client = Trust_daemon.Client in
  let run file connect from_trace timeout json pin deny out =
    let die msg =
      prerr_endline ("trustseq: " ^ msg);
      exit 2
    in
    let read_bin = function
      | "-" -> In_channel.input_all stdin
      | path -> (
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error m -> die m)
    in
    let of_dump dump =
      match Ring.decode dump with Error m -> die m | Ok (sessions, _) -> Mine.of_sessions sessions
    in
    let board =
      match (file, connect, from_trace) with
      | Some _, Some _, _ | Some _, _, Some _ | None, Some _, Some _ ->
        die "mine takes exactly one input: a dump FILE, --connect, or --from-trace"
      | None, None, None ->
        die "mine needs a ring dump FILE ('-' for stdin), --connect ADDR, or --from-trace FILE"
      | Some path, None, None -> of_dump (read_bin path)
      | None, Some addr, None -> (
        match Client.connect ~timeout addr with
        | Error e -> die e
        | Ok client ->
          let decoded = Client.trace_sessions client in
          Client.close client;
          (match decoded with Ok (sessions, _) -> Mine.of_sessions sessions | Error e -> die e))
      | None, None, Some path -> (
        match Analysis.of_jsonl (read_bin path) with
        | Error m -> die m
        | Ok a -> Mine.of_views (Analysis.views a))
    in
    let rendered =
      if json then Mine.json board ^ "\n"
      else begin
        let candidates label = function
          | [] -> Printf.sprintf "%s: none\n" label
          | shapes -> Printf.sprintf "%s: %s\n" label (String.concat " " shapes)
        in
        Mine.table board
        ^ candidates (Printf.sprintf "pin candidates (>= %d incidents)" pin)
            (Mine.pin_candidates ~min_incidents:pin board)
        ^ candidates (Printf.sprintf "deny candidates (>= %d violating sessions)" deny)
            (Mine.deny_candidates ~min_violations:deny board)
      end
    in
    land_output out rendered;
    Printf.eprintf "mine: %d sessions over %d shapes\n" (Mine.sessions board)
      (Mine.shapes board);
    0
  in
  let file =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Binary ring dump ('-' for stdin) — from $(b,batch --ring-dump-out) or a daemon's \
             $(b,trace) wire frame.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Drain a live daemon's trace ring and mine that window: $(b,unix:PATH), \
             $(b,tcp:HOST:PORT), or a bare socket path.")
  in
  let from_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:
            "Mine a JSONL trace export ('-' for stdin) instead of a binary dump — e.g. a \
             daemon's --trace sink or $(b,trace-decode) output. The scoreboard is \
             byte-identical to mining the dump the JSONL was decoded from.")
  in
  let timeout =
    Arg.(
      value & opt float 10.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Receive timeout for --connect.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the canonical one-line scoreboard JSON instead of the table rendering.")
  in
  let pin =
    Arg.(
      value & opt int 2
      & info [ "pin" ] ~docv:"N"
          ~doc:
            "List shapes with at least $(docv) retry/expiry incidents (and no violations) as \
             pin candidates.")
  in
  let deny =
    Arg.(
      value & opt int 1
      & info [ "deny" ] ~docv:"N"
          ~doc:"List shapes with at least $(docv) violating sessions as deny candidates.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the scoreboard to $(docv) (default stdout).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Folds kept sessions — the trace ring's tail-retained anomalies plus the head-sampled \
         baseline — into a per-shape incident scoreboard: keep reasons, retry/expiry rates, §5 \
         exposure violations and per-phase self-time, keyed by the canonical FNV spec shape \
         hash the protocol cache uses. This is the offline face of the daemon's \
         $(b,--mine-every) feedback loop (docs/OBS.md, \"Trace mining\"): the same scoreboard \
         the daemon folds live, so policy decisions are reproducible from a dump.";
      `P
        "Everything is a pure function of the decoded span views: the scoreboard is \
         byte-identical whether the sessions came from a file, a live drain or a re-parsed \
         JSONL export, and whatever --jobs produced them.";
      `S Manpage.s_exit_status;
      `P "0 — mined and rendered.";
      `P "2 — unreadable input, a corrupt dump, connection failure, or bad flags.";
    ]
  in
  Cmd.v
    (Cmd.info "mine" ~man
       ~doc:
         "Mine a trace-ring dump (file, live daemon, or JSONL export) into the per-shape \
          incident scoreboard that drives cache pinning and admission denial.")
    Term.(const run $ file $ connect $ from_trace $ timeout $ json $ pin $ deny $ out)

(* batch *)

let batch_cmd =
  let run sessions seed concurrency jobs mode density drop_rate defect_every no_rescue verify
      no_compiled json out trace_out trace_format trace_sample trace_ring ring_out debug_gauges =
    let module Service = Trust_serve.Service in
    let module Ring = Trust_obs.Ring in
    let trace_format = trace_format_or_die trace_format in
    if sessions < 0 then (
      prerr_endline "trustseq: --sessions must be non-negative";
      exit 2);
    if concurrency < 1 then (
      prerr_endline "trustseq: --concurrency must be at least 1";
      exit 2);
    if jobs < 1 then (
      prerr_endline "trustseq: --jobs must be at least 1";
      exit 2);
    check_run_flags ~drop_rate ~trace_sample ~trace_ring;
    (match defect_every with
    | Some n when n < 1 ->
      prerr_endline "trustseq: --defect-every must be at least 1";
      exit 2
    | _ -> ());
    (* The standard-streams rule (README "Standard streams"): at most
       one output may claim stdout. The snapshot defaults to stdout, so
       a stdout trace needs the snapshot redirected with --out. *)
    (match (trace_out, out) with
    | Some "-", "-" ->
      prerr_endline
        "trustseq: at most one output may claim stdout: batch --trace - needs --out FILE";
      exit 2
    | _ -> ());
    (* a binary ring dump is never a terminal artifact — refuse '-' *)
    (match ring_out with
    | Some "-" ->
      prerr_endline "trustseq: --ring-dump-out needs a file path, not '-'";
      exit 2
    | _ -> ());
    (* asking for a dump implies a ring; default to 1 MiB like serve *)
    let trace_ring =
      match ring_out with Some _ when trace_ring = 0 -> 1 lsl 20 | _ -> trace_ring
    in
    let config =
      {
        Service.default with
        Service.sessions;
        seed = Int64.of_int seed;
        concurrency;
        jobs;
        mode;
        mix = { Workload.Gen.default_mix with Workload.Gen.trust_density = density };
        rescue = not no_rescue;
        verify_cache = verify;
        drop_rate;
        defect_every;
        trace = trace_out <> None;
        compiled = not no_compiled;
        sample_rate = trace_sample;
        trace_ring;
      }
    in
    let outcome = Service.run config in
    land_output out
      (if json then Service.json outcome
       else Format.asprintf "%a" Service.report outcome);
    Option.iter
      (fun path -> write_trace trace_format path (Obs.batch_traces outcome.Service.obs))
      trace_out;
    (match (ring_out, outcome.Service.ring) with
    | Some path, Some ring -> (
      try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Ring.dump ring))
      with Sys_error m ->
        prerr_endline ("trustseq: " ^ m);
        exit 2)
    | _ -> ());
    (* wall-clock throughput goes to stderr so stdout stays a
       byte-identical snapshot across runs with the same seed, at any
       --jobs; the scheduling-dependent pool gauges are noisier still
       and stay opt-in *)
    prerr_endline (Service.wall_line outcome);
    if debug_gauges then
      prerr_string (Trust_serve.Metrics.volatile_text outcome.Service.metrics);
    0
  in
  let sessions =
    Arg.(
      value & opt int 100
      & info [ "sessions" ] ~docv:"N" ~doc:"How many exchange sessions to generate and run.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")
  in
  let concurrency =
    Arg.(
      value & opt int 8
      & info [ "concurrency" ] ~docv:"LANES" ~doc:"Virtual scheduler lanes (bounded concurrency).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains executing sessions in parallel. The snapshot (verdicts, traces, \
             metrics, makespan) is bit-for-bit identical at any value; only wall-clock time and \
             the serve_pool_* gauges change.")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("lockstep", Trust_sim.Harness.Lockstep);
               ("distributed", Trust_sim.Harness.Distributed);
             ])
          Trust_sim.Harness.Lockstep
      & info [ "mode" ] ~docv:"MODE" ~doc:"Protocol mode: lockstep (paper-sound) or distributed.")
  in
  let density =
    Arg.(
      value
      & opt float Workload.Gen.default_mix.Workload.Gen.trust_density
      & info [ "trust-density" ] ~docv:"P" ~doc:"Direct-trust probability per generated deal.")
  in
  let drop_rate =
    Arg.(
      value & opt float 0.
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Per-delivery drop probability in [0, 1] on first attempts (retried once without drops).")
  in
  let defect_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "defect-every" ] ~docv:"N" ~doc:"Make every N-th session's first principal defect.")
  in
  let no_rescue =
    Arg.(value & flag & info [ "no-rescue" ] ~doc:"Do not rescue infeasible specs with indemnities.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-cache" ]
          ~doc:"Re-synthesize on every cache hit and fail loudly on divergence.")
  in
  let no_compiled =
    Arg.(
      value & flag
      & info [ "no-compiled" ]
          ~doc:
            "Run every session on the interpreted reference engine instead of executing cached \
             compiled plans on the allocation-free runtime. The snapshot, --trace exports and ring \
             dumps are bit-for-bit identical either way; only wall-clock time changes.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.") in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic snapshot to $(docv) (default stdout). Required (non-'-') \
             when --trace also wants stdout — at most one output may claim it.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record one structured trace per session and write them all to $(docv) ('-' for \
             stdout, only with --out FILE). Span sets are byte-identical at any --jobs (see \
             docs/OBS.md).")
  in
  let trace_sample =
    Arg.(
      value & opt float 1.0
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Head-sample this fraction of sessions into the trace (deterministic per seed and \
             session id; the sampled set at rate r is a subset of the set at any higher rate). \
             Every session runs untraced on the compiled fast path; tail keep rules also keep \
             any session with an exposure violation, retry, expiry or lint refusal, and each \
             kept session's trace is rebuilt from its run. Applies when --trace or a ring is \
             active.")
  in
  let trace_ring =
    Arg.(
      value & opt int 0
      & info [ "trace-ring" ] ~docv:"BYTES"
          ~doc:
            "Also commit kept sessions into a binary ring sink of $(docv) capacity (one shard \
             per worker domain). 0 (default) disables the ring; see --ring-dump-out.")
  in
  let ring_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "ring-dump-out" ] ~docv:"FILE"
          ~doc:
            "Write the binary ring dump to $(docv) after the batch (implies a 1 MiB ring if \
             --trace-ring is unset). Decode it with $(b,trustseq trace-decode).")
  in
  let debug_gauges =
    Arg.(
      value & flag
      & info [ "debug-gauges" ]
          ~doc:
            "Print the volatile serve_pool_* gauges (how often the team's helper domains parked \
             waiting for work) to stderr. They depend on OS scheduling, not the seed, so they are \
             off by default and never part of the snapshot.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a generated multi-session workload through the concurrent exchange service \
          (protocol cache + batch scheduler) and print a deterministic metrics report.")
    Term.(
      const run $ sessions $ seed $ concurrency $ jobs $ mode $ density $ drop_rate $ defect_every
      $ no_rescue $ verify $ no_compiled $ json $ out $ trace_out
      $ trace_format_arg ~default:"jsonl" "--trace" $ trace_sample $ trace_ring $ ring_out
      $ debug_gauges)

(* serve / submit / loadgen — the daemon and its clients *)

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "tcp listener is HOST:PORT")
    | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Ok (host, port)
      | Some _ | None -> Error (`Msg "tcp listener needs a port in [1, 65535]"))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let connect_arg =
  Arg.(
    value
    & opt string "unix:/tmp/trustseq.sock"
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare Unix-socket path \
           (default unix:/tmp/trustseq.sock).")

let serve_cmd =
  let module Server = Trust_daemon.Server in
  let run socket tcp max_pending cache_capacity epoch_every max_idle deadline latency mode
      no_rescue verify metrics_out trace_out trace_ring trace_sample mine_every mine_pin
      mine_deny defect_every drop_rate =
    if socket = None && tcp = None then begin
      prerr_endline "trustseq: serve needs --socket PATH and/or --tcp HOST:PORT";
      exit 2
    end;
    if max_pending < 0 then (
      prerr_endline "trustseq: --max-pending must be non-negative";
      exit 2);
    if cache_capacity < 1 then (
      prerr_endline "trustseq: --cache-capacity must be at least 1";
      exit 2);
    if epoch_every < 0 then (
      prerr_endline "trustseq: --epoch-every must be non-negative (0 disables aging)";
      exit 2);
    if max_idle < 1 then (
      prerr_endline "trustseq: --max-idle-epochs must be at least 1";
      exit 2);
    (match trace_out with
    | Some "-" ->
      (* the same standard-streams rule as batch: the daemon's stderr
         carries its status lines, stdout stays silent, and the trace
         stream is appended per request — it needs a real file *)
      prerr_endline "trustseq: serve --trace needs a file path, not '-'";
      exit 2
    | _ -> ());
    check_run_flags ~drop_rate ~trace_sample ~trace_ring;
    if mine_every < 0 || mine_pin < 0 || mine_deny < 0 || defect_every < 0 then (
      prerr_endline "trustseq: --mine-every/--mine-pin/--mine-deny/--defect-every must be non-negative";
      exit 2);
    if mine_every > 0 && trace_ring = 0 then (
      prerr_endline "trustseq: --mine-every needs a live trace ring (--trace-ring > 0)";
      exit 2);
    let config =
      {
        Server.default with
        Server.unix_path = socket;
        tcp;
        policy =
          {
            Trust_serve.Cache.default_policy with
            Trust_serve.Cache.mode;
            rescue = not no_rescue;
            verify;
          };
        cache_capacity;
        scheduler =
          {
            Server.default.Server.scheduler with
            Trust_serve.Scheduler.session_deadline = deadline;
            latency;
            drop_rate;
            sample_rate = trace_sample;
          };
        max_pending;
        epoch_every;
        max_idle_epochs = max_idle;
        snapshot_path = metrics_out;
        trace_path = trace_out;
        trace_ring;
        mine_every;
        mine_pin;
        mine_deny;
        defect_every;
        banner = "trustseq " ^ version;
      }
    in
    let stop = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    List.iter
      (fun l -> prerr_endline ("trustseq serve: listening on " ^ l))
      ((match socket with Some p -> [ "unix:" ^ p ] | None -> [])
      @ match tcp with Some (h, p) -> [ Printf.sprintf "tcp:%s:%d" h p ] | None -> []);
    let stats = Server.run ~stop config in
    prerr_endline ("trustseq serve: drained " ^ Server.stats_json stats);
    if stats.Server.drained then 0 else 1
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on this Unix socket (created, then unlinked on exit).")
  in
  let tcp =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Also (or instead) listen on TCP.")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: submissions queued beyond $(docv) in one poll round are answered \
             $(b,busy) instead of buffered (0 bounces everything).")
  in
  let cache_capacity =
    Arg.(
      value & opt int 4096
      & info [ "cache-capacity" ] ~docv:"N" ~doc:"Protocol-cache resident-entry bound.")
  in
  let epoch_every =
    Arg.(
      value & opt int 256
      & info [ "epoch-every" ] ~docv:"N"
          ~doc:
            "Advance the cache epoch every $(docv) served requests, sweeping idle entries and \
             rewriting --metrics-out (0 disables aging).")
  in
  let max_idle =
    Arg.(
      value & opt int 2
      & info [ "max-idle-epochs" ] ~docv:"N"
          ~doc:"Sweep cache entries untouched for $(docv) whole epochs.")
  in
  let deadline =
    Arg.(
      value & opt int 1000
      & info [ "deadline" ] ~docv:"TICKS" ~doc:"Per-session engine escrow deadline.")
  in
  let latency =
    Arg.(value & opt int 1 & info [ "latency" ] ~docv:"TICKS" ~doc:"Engine delivery latency.")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("lockstep", Trust_sim.Harness.Lockstep);
               ("distributed", Trust_sim.Harness.Distributed);
             ])
          Trust_sim.Harness.Lockstep
      & info [ "mode" ] ~docv:"MODE" ~doc:"Protocol mode: lockstep (paper-sound) or distributed.")
  in
  let no_rescue =
    Arg.(value & flag & info [ "no-rescue" ] ~doc:"Do not rescue infeasible specs with indemnities.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify-cache" ]
          ~doc:"Re-synthesize on every cache hit and fail loudly on divergence.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Rewrite the deterministic metrics exposition here (atomic rename) at every epoch \
             tick and on drain.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Append every kept request trace (head-sampled per --trace-sample, plus every \
             tail-promoted anomaly) as JSONL (a daemon.request root span) to $(docv).")
  in
  let trace_ring =
    Arg.(
      value
      & opt int Server.default.Server.trace_ring
      & info [ "trace-ring" ] ~docv:"BYTES"
          ~doc:
            "Capacity of the live binary trace ring, drained by the $(b,trace) wire request \
             (and $(b,trustseq trace-decode --connect)). Default 1 MiB; 0 disables the ring — \
             and with no --trace file, tracing entirely.")
  in
  let trace_sample =
    Arg.(
      value
      & opt float Server.default.Server.scheduler.Trust_serve.Scheduler.sample_rate
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Head-sample this fraction of requests into the trace (deterministic in the \
             scheduler seed and session id). Every request runs untraced on the compiled fast \
             path; tail keep rules also keep every session that closes with an exposure \
             violation, retry, expiry or lint refusal, and each kept request is traced after \
             it was answered. Default 0.01.")
  in
  let mine_every =
    Arg.(
      value
      & opt int Server.default.Server.mine_every
      & info [ "mine-every" ] ~docv:"N"
          ~doc:
            "Every $(docv) served requests, self-drain the trace ring, fold the kept sessions \
             into the trace-mining scoreboard and apply the feedback policy below (pin, \
             pre-warm, deny). Needs --trace-ring > 0. Default 0 (the loop is off).")
  in
  let mine_pin =
    Arg.(
      value
      & opt int Server.default.Server.mine_pin
      & info [ "mine-pin" ] ~docv:"N"
          ~doc:
            "Pin (and pre-warm when evicted) cache entries for shapes with at least $(docv) \
             retry or expiry incidents on the scoreboard and no exposure violations; pinned \
             entries are exempt from FIFO eviction and epoch aging. 0 disables. Default 2.")
  in
  let mine_deny =
    Arg.(
      value
      & opt int Server.default.Server.mine_deny
      & info [ "mine-deny" ] ~docv:"N"
          ~doc:
            "Deny-list shapes whose kept sessions include at least $(docv) exposure-violating \
             runs; further submissions of a denied shape are answered $(b,refused) with the \
             $(b,TM001) diagnostic. 0 disables. Default 1.")
  in
  let defect_every =
    Arg.(
      value
      & opt int Server.default.Server.defect_every
      & info [ "defect-every" ] ~docv:"N"
          ~doc:
            "Fault injection for smokes and soaks: every $(docv)-th session's first defectable \
             principal goes silent (the same knob batch --defect-every turns). Default 0 (no \
             injection).")
  in
  let drop_rate =
    Arg.(
      value
      & opt float Trust_serve.Scheduler.default_config.Trust_serve.Scheduler.drop_rate
      & info [ "drop-rate" ] ~docv:"RATE"
          ~doc:
            "Per-delivery message-drop probability in [0, 1] on each session's first run \
             (retries rerun clean), exercising the retry path. Default 0.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the long-lived exchange service: spec submissions arrive over a length-prefixed \
         JSON wire protocol (docs/DAEMON.md), each runs the same lifecycle as a batch session — \
         admission lint, cached synthesis, engine run, audit — and the verdict travels back \
         with the session's exposure tallies. Admission control answers $(b,busy) past \
         --max-pending; the protocol cache ages by epochs so the Zipf long tail is swept while \
         heavy hitters stay warm.";
      `P
        "Tracing is always on at production cost: 1% of requests are head-sampled into a 1 MiB \
         binary ring (tail keep rules promote every anomalous session regardless of the rate), \
         drained live over the wire by $(b,trustseq trace-decode --connect ADDR). Tune with \
         --trace-ring / --trace-sample; add --trace FILE for a durable JSONL sink of every \
         kept session.";
      `P
        "With --mine-every N the daemon closes the loop on its own telemetry: every N served \
         requests it drains the ring, folds the kept sessions into the $(b,trustseq mine) \
         scoreboard, pins and pre-warms chronically retried or expiring shapes (--mine-pin) \
         and deny-lists shapes observed violating the \xC2\xA75 exposure bound (--mine-deny; refused \
         submissions carry the TM001 diagnostic). Progress shows up in the obs_mine_* \
         counters and the serve_cache_pinned / serve_admission_denied_total metrics.";
      `P
        "SIGTERM or SIGINT drains gracefully: stop accepting, finish everything admitted, \
         flush responses, write the final --metrics-out snapshot, exit 0.";
      `S Manpage.s_exit_status;
      `P "0 — clean drain after SIGTERM/SIGINT.";
      `P "1 — the event loop exited without draining (internal error).";
      `P "2 — bad flags (no listener, invalid bounds).";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:
         "Run the exchange daemon: wire-protocol submissions, admission control, epoch-aged \
          protocol cache, graceful drain.")
    Term.(
      const run $ socket $ tcp $ max_pending $ cache_capacity $ epoch_every $ max_idle $ deadline
      $ latency $ mode $ no_rescue $ verify $ metrics_out $ trace_out $ trace_ring $ trace_sample
      $ mine_every $ mine_pin $ mine_deny $ defect_every $ drop_rate)

let submit_cmd =
  let module Client = Trust_daemon.Client in
  let module Wire = Trust_daemon.Wire in
  let run file connect timeout quiet =
    let src = read_source file in
    let die msg =
      prerr_endline ("trustseq: " ^ msg);
      exit 2
    in
    match Client.connect ~timeout connect with
    | Error e -> die e
    | Ok client -> (
      let resp = Client.submit client ~id:1 ~spec:src in
      Client.close client;
      match resp with
      | Error e -> die e
      | Ok (Wire.Busy _) -> die "server busy (admission bound reached); retry later"
      | Ok (Wire.Refused { reason; _ }) -> die ("refused: " ^ reason)
      | Ok (Wire.Welcome _ | Wire.Pong _ | Wire.Text _) ->
        die "unexpected response to submit"
      | Ok
          (Wire.Result
            {
              status;
              exit_code;
              cache_hit;
              ticks;
              events;
              attempts;
              exposure_peak;
              exposure_ticks;
              exposure_violations;
              reason;
              _;
            }) ->
        if not quiet then begin
          print_string
            (Report.Table.kv
               [
                 ("status", status);
                 ("cache", (if cache_hit then "hit" else "miss"));
                 ("attempts", string_of_int attempts);
                 ("ticks", string_of_int ticks);
                 ("events", string_of_int events);
                 ( "exposure",
                   Printf.sprintf "peak %s, %d risk ticks, %d violations"
                     (Report.Table.money exposure_peak)
                     exposure_ticks exposure_violations );
               ]);
          Option.iter (fun reason -> Printf.printf "reason: %s\n" reason) reason
        end;
        exit_code)
  in
  let timeout =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Receive timeout per response.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No output; the exit code is the verdict.")
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 — the session settled (every party reached its preferred outcome).";
      `P "1 — the session expired or aborted (defection, infeasible spec).";
      `P "2 — transport or protocol failure: no daemon, busy, refused, parse error.";
    ]
  in
  Cmd.v
    (Cmd.info "submit" ~man
       ~doc:
         "Submit one specification to a running daemon over the wire protocol and report its \
          verdict (same exit contract as check/simulate).")
    Term.(const run $ file_arg $ connect_arg $ timeout $ quiet)

let loadgen_cmd =
  let module Loadgen = Trust_daemon.Loadgen in
  let module Universe = Workload.Universe in
  let run connect requests profile principals seed zipf_consumers zipf_brokers templates
      template_share busy_retries json =
    if requests < 1 then (
      prerr_endline "trustseq: --requests must be at least 1";
      exit 2);
    (* the profile picks the base universe; explicit knobs override it *)
    let base =
      match profile with
      | `Default -> Universe.default_config
      | `Defect_heavy -> Universe.defect_heavy
    in
    let templates = Option.value templates ~default:base.Universe.templates in
    let template_share =
      Option.value template_share ~default:base.Universe.template_share
    in
    if template_share < 0. || template_share > 1. then (
      prerr_endline "trustseq: --template-share must lie in [0, 1]";
      exit 2);
    let universe =
      {
        base with
        Universe.principals;
        s_consumers = zipf_consumers;
        s_brokers = zipf_brokers;
        templates;
        template_share;
      }
    in
    let cfg =
      {
        Loadgen.connect;
        requests;
        universe;
        seed = Int64.of_int seed;
        busy_retries;
      }
    in
    match Loadgen.run cfg with
    | exception Invalid_argument m ->
      prerr_endline ("trustseq: " ^ m);
      exit 2
    | Error e ->
      prerr_endline ("trustseq: " ^ e);
      exit 2
    | Ok report ->
      if json then print_endline (Loadgen.json report) else print_string (Loadgen.table report);
      if report.Loadgen.dropped > 0 then 1 else 0
  in
  let requests =
    Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc:"Submissions to send.")
  in
  let principals =
    Arg.(
      value
      & opt int Universe.default_config.Universe.principals
      & info [ "principals" ] ~docv:"N"
          ~doc:"Synthetic principal universe size (default one million).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")
  in
  let zipf_consumers =
    Arg.(
      value
      & opt float Universe.default_config.Universe.s_consumers
      & info [ "zipf-consumers" ] ~docv:"S" ~doc:"Consumer popularity exponent (long tail).")
  in
  let zipf_brokers =
    Arg.(
      value
      & opt float Universe.default_config.Universe.s_brokers
      & info [ "zipf-brokers" ] ~docv:"S" ~doc:"Broker/agent popularity exponent (heavy hitters).")
  in
  let profile =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("defect-heavy", `Defect_heavy) ]) `Default
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Universe profile: $(b,default) (million-principal marketplace) or \
             $(b,defect-heavy) (hot 64-template catalog, deep chains, wide fans — the traffic \
             that feeds the daemon's --mine-every loop under fault injection). Explicit knobs \
             below override the profile.")
  in
  let templates =
    Arg.(
      value
      & opt (some int) None
      & info [ "templates" ] ~docv:"N"
          ~doc:"Catalog template count (0 disables replays; default from --profile).")
  in
  let template_share =
    Arg.(
      value
      & opt (some float) None
      & info [ "template-share" ] ~docv:"P"
          ~doc:
            "Fraction of traffic replaying catalog templates (cache-hot; default from \
             --profile).")
  in
  let busy_retries =
    Arg.(
      value & opt int 25
      & info [ "busy-retries" ] ~docv:"N" ~doc:"Retries per request after a busy answer.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON line.") in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Drives a running daemon with deterministic Zipf-distributed traffic over a synthetic \
         principal universe: heavy-hitter brokers, a long tail of consumers, and an optional \
         catalog-template slice that repeats byte-identical specs to exercise the protocol \
         cache. Latencies are wall-clock and belong in benchmarks, not snapshots.";
      `S Manpage.s_exit_status;
      `P "0 — every request got a result.";
      `P "1 — some requests were dropped after exhausting --busy-retries.";
      `P "2 — transport failure or invalid flags.";
    ]
  in
  Cmd.v
    (Cmd.info "loadgen" ~man
       ~doc:
         "Generate Zipf-distributed load against a running daemon and report throughput and \
          latency percentiles.")
    Term.(
      const run $ connect_arg $ requests $ profile $ principals $ seed $ zipf_consumers
      $ zipf_brokers $ templates $ template_share $ busy_retries $ json)

(* petri *)

let petri_cmd =
  let run file =
    let spec = or_die (load file) in
    let enc = Petri.Encode.of_spec spec in
    let verdict, stats = Petri.Encode.feasible enc in
    Printf.printf "petri verdict: %s (states explored: %d)\n"
      (match verdict with
      | `Feasible -> "FEASIBLE"
      | `Infeasible -> "INFEASIBLE"
      | `Unknown -> "UNKNOWN (bound hit)")
      stats.Petri.Analysis.explored;
    Printf.printf "graph reduction: %s\n"
      (if Feasibility.is_feasible spec then "FEASIBLE" else "INFEASIBLE");
    0
  in
  Cmd.v
    (Cmd.info "petri"
       ~doc:"Cross-check feasibility against the exhaustive Petri-net baseline (section 7.4).")
    Term.(const run $ file_arg)

let main_cmd =
  let doc = "trust-explicit distributed commerce transactions (Ketchpel & Garcia-Molina, ICDCS'96)" in
  Cmd.group
    (Cmd.info "trustseq" ~version ~doc)
    [ check_cmd; lint_cmd; analyze_cmd; sequence_cmd; indemnify_cmd; simulate_cmd; render_cmd; cost_cmd; route_cmd; exposure_cmd; petri_cmd; batch_cmd; serve_cmd; submit_cmd; loadgen_cmd; trace_cmd; trace_stats_cmd; trace_diff_cmd; trace_decode_cmd; mine_cmd ]

let () = exit (Cmd.eval' main_cmd)
