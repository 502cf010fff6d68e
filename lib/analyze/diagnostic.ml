module Loc = Trust_lang.Loc

type severity = Error | Warning | Info

type code =
  | Unused_party
  | Dead_asset
  | Unbacked_split
  | Redundant_priority
  | Contradictory_priorities
  | Unreachable_acceptance
  | Vacuous_intermediary
  | Zero_value_leg
  | Rescuable_infeasibility
  | Parse_error
  | Elaboration_error
  | Unsafe_sequence
  | Double_spend
  | Over_pledged_indemnity
  | Deadline_race
  | Unprovable_bound
  | Counterexample_schedule

let all_codes =
  [
    Unused_party; Dead_asset; Unbacked_split; Redundant_priority;
    Contradictory_priorities; Unreachable_acceptance; Vacuous_intermediary;
    Zero_value_leg; Rescuable_infeasibility; Parse_error; Elaboration_error;
    Unsafe_sequence; Double_spend; Over_pledged_indemnity; Deadline_race;
    Unprovable_bound; Counterexample_schedule;
  ]

let code_number = function
  | Unused_party -> 1
  | Dead_asset -> 2
  | Unbacked_split -> 3
  | Redundant_priority -> 4
  | Contradictory_priorities -> 5
  | Unreachable_acceptance -> 6
  | Vacuous_intermediary -> 7
  | Zero_value_leg -> 8
  | Rescuable_infeasibility -> 9
  | Parse_error -> 10
  | Elaboration_error -> 11
  | Unsafe_sequence -> 12
  | Double_spend -> 13
  | Over_pledged_indemnity -> 14
  | Deadline_race -> 15
  | Unprovable_bound -> 16
  | Counterexample_schedule -> 17

let code_id code = Printf.sprintf "TL%03d" (code_number code)

let code_name = function
  | Unused_party -> "unused-party"
  | Dead_asset -> "dead-asset"
  | Unbacked_split -> "unbacked-split"
  | Redundant_priority -> "redundant-priority"
  | Contradictory_priorities -> "contradictory-priorities"
  | Unreachable_acceptance -> "unreachable-acceptance"
  | Vacuous_intermediary -> "vacuous-intermediary"
  | Zero_value_leg -> "zero-value-leg"
  | Rescuable_infeasibility -> "rescuable-infeasibility"
  | Parse_error -> "parse-error"
  | Elaboration_error -> "elaboration-error"
  | Unsafe_sequence -> "unsafe-sequence"
  | Double_spend -> "double-spend"
  | Over_pledged_indemnity -> "over-pledged-indemnity"
  | Deadline_race -> "deadline-race"
  | Unprovable_bound -> "unprovable-bound"
  | Counterexample_schedule -> "counterexample-schedule"

let default_severity = function
  | Unused_party | Dead_asset | Unbacked_split | Redundant_priority
  | Zero_value_leg | Over_pledged_indemnity | Deadline_race
  | Unprovable_bound ->
    Warning
  | Contradictory_priorities | Unreachable_acceptance | Parse_error
  | Elaboration_error | Unsafe_sequence | Double_spend ->
    Error
  | Vacuous_intermediary | Rescuable_infeasibility | Counterexample_schedule ->
    Info

type t = {
  code : code;
  severity : severity;
  message : string;
  file : string option;
  loc : Loc.t option;
  notes : string list;
}

let make ?severity ?file ?loc ?(notes = []) code message =
  let severity =
    match severity with Some s -> s | None -> default_severity code
  in
  { code; severity; message; file; loc; notes }

let compare a b =
  let file_cmp =
    match (a.file, b.file) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some fa, Some fb -> String.compare fa fb
  in
  if file_cmp <> 0 then file_cmp
  else
    let loc_cmp =
      match (a.loc, b.loc) with
      | None, None -> 0
      | Some _, None -> -1
      | None, Some _ -> 1
      | Some la, Some lb -> Loc.compare la lb
    in
    if loc_cmp <> 0 then loc_cmp
    else
      match Int.compare (code_number a.code) (code_number b.code) with
      | 0 -> String.compare a.message b.message
      | c -> c

let sort diagnostics = List.stable_sort compare diagnostics

let gating ?(werror = false) d =
  match d.severity with Error -> true | Warning -> werror | Info -> false

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

let pp ppf d =
  (match (d.file, d.loc) with
  | Some file, Some loc ->
    Format.fprintf ppf "%a: " (Loc.pp_located ~file) loc
  | Some file, None -> Format.fprintf ppf "%s: " file
  | None, Some loc -> Format.fprintf ppf "%a: " (Loc.pp_located ?file:None) loc
  | None, None -> ());
  Format.fprintf ppf "%a[%s]: %s" pp_severity d.severity (code_id d.code)
    d.message;
  List.iter (fun note -> Format.fprintf ppf "@\n  note: %s" note) d.notes

let render_human diagnostics =
  String.concat "\n"
    (List.map (fun d -> Format.asprintf "@[<v>%a@]" pp d) diagnostics)

let json_string s = "\"" ^ Trust_obs.Json.escape s ^ "\""

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let json_of_diagnostic d =
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  add "code" (json_string (code_id d.code));
  add "name" (json_string (code_name d.code));
  add "severity" (json_string (severity_string d.severity));
  add "message" (json_string d.message);
  (match d.file with Some f -> add "file" (json_string f) | None -> ());
  (match d.loc with
  | Some loc ->
    add "line" (string_of_int loc.Loc.line);
    add "col" (string_of_int loc.Loc.col)
  | None -> ());
  if d.notes <> [] then
    add "notes"
      (Printf.sprintf "[%s]" (String.concat "," (List.map json_string d.notes)));
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.rev_map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v)
          !fields))

let render_json diagnostics =
  Printf.sprintf "{\"version\":1,\"diagnostics\":[%s]}"
    (String.concat "," (List.map json_of_diagnostic diagnostics))

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

(* Rule help links into the committed catalog: docs/LINT.md carries one
   anchor per code (GitHub renders "### TL013 — double-spend" as
   #tl013--double-spend; the bare #tl0xx form below relies on the
   explicit anchors the doc declares). *)
let help_uri code =
  Printf.sprintf "https://example.invalid/trustseq/docs/LINT.md#%s"
    (String.lowercase_ascii (code_id code))

let sarif_rule code =
  Printf.sprintf
    "{\"id\":%s,\"name\":%s,\"shortDescription\":{\"text\":%s},\"helpUri\":%s,\"defaultConfiguration\":{\"level\":%s}}"
    (json_string (code_id code))
    (json_string (code_name code))
    (json_string (code_name code))
    (json_string (help_uri code))
    (json_string (sarif_level (default_severity code)))

let sarif_result d =
  let location =
    match d.file with
    | None -> ""
    | Some file ->
      let region =
        match d.loc with
        | Some loc ->
          Printf.sprintf ",\"region\":{\"startLine\":%d,\"startColumn\":%d}"
            loc.Loc.line loc.Loc.col
        | None -> ""
      in
      Printf.sprintf
        ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s}%s}}]"
        (json_string file) region
  in
  let text =
    match d.notes with
    | [] -> d.message
    | notes -> String.concat "\n" (d.message :: notes)
  in
  Printf.sprintf "{\"ruleId\":%s,\"level\":%s,\"message\":{\"text\":%s}%s}"
    (json_string (code_id d.code))
    (json_string (sarif_level d.severity))
    (json_string text) location

let render_sarif diagnostics =
  Printf.sprintf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"trustseq-lint\",\"informationUri\":\"https://example.invalid/trustseq\",\"rules\":[%s]}},\"results\":[%s]}]}"
    (String.concat "," (List.map sarif_rule all_codes))
    (String.concat "," (List.map sarif_result diagnostics))
