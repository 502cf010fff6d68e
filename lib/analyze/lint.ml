module Ast = Trust_lang.Ast
module Parser = Trust_lang.Parser
module Elaborate = Trust_lang.Elaborate
module Obs = Trust_obs.Obs

type format = Human | Json | Sarif

type tally = { diagnostics : int; errors : int; warnings : int }

let tally diagnostics =
  let by severity =
    List.length (List.filter (fun d -> d.Diagnostic.severity = severity) diagnostics)
  in
  {
    diagnostics = List.length diagnostics;
    errors = by Diagnostic.Error;
    warnings = by Diagnostic.Warning;
  }

let with_span obs ?parent ~deep f =
  Obs.with_span obs ?parent ~phase:"lint" "lint" (fun h ->
      let result, t = f () in
      if Obs.enabled obs then begin
        Obs.attr obs h "deep" (Obs.Bool deep);
        Obs.attr obs h "diagnostics" (Obs.Int t.diagnostics);
        Obs.attr obs h "errors" (Obs.Int t.errors);
        Obs.attr obs h "warnings" (Obs.Int t.warnings)
      end;
      result)

let check_spec ?(obs = Obs.null) ?parent ?file ?decls ?static ?(deep = true)
    spec =
  with_span obs ?parent ~deep (fun () ->
      let diagnostics =
        Diagnostic.sort (Rules.check ?file ?decls ?static ~deep spec)
      in
      (diagnostics, tally diagnostics))

let elaboration_diags ?file errors =
  List.map
    (fun (e : Elaborate.error) ->
      Diagnostic.make ?file ~loc:e.Elaborate.loc Diagnostic.Elaboration_error
        e.Elaborate.message)
    (Elaborate.sort_errors errors)

let lint_source ?file ?static ?deep src =
  match Parser.parse src with
  | Error e ->
    [
      Diagnostic.make ?file ~loc:e.Parser.loc Diagnostic.Parse_error
        e.Parser.message;
    ]
  | Ok decls ->
    if Elaborate.is_web decls then
      match Elaborate.web decls with
      | Ok _ -> []
      | Error errors -> elaboration_diags ?file errors
    else (
      match Elaborate.program decls with
      | Error errors -> elaboration_diags ?file errors
      | Ok spec -> check_spec ?file ~decls ?static ?deep spec)

let lint_file ?static ?deep path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> lint_source ~file:path ?static ?deep src
  | exception Sys_error message ->
    [ Diagnostic.make ~file:path Diagnostic.Parse_error message ]

let exit_status ?werror diagnostics =
  if
    List.exists
      (fun d -> d.Diagnostic.code = Diagnostic.Parse_error)
      diagnostics
  then 2
  else if List.exists (Diagnostic.gating ?werror) diagnostics then 1
  else 0

let render format diagnostics =
  match format with
  | Human -> Diagnostic.render_human diagnostics
  | Json -> Diagnostic.render_json diagnostics
  | Sarif -> Diagnostic.render_sarif diagnostics
