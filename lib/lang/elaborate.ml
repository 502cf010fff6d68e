open Exchange

type error = { message : string; loc : Loc.t }

let pp_error ?file ppf e =
  Format.fprintf ppf "%a: %s" (Loc.pp_located ?file) e.loc e.message

let compare_error a b =
  match Loc.compare a.loc b.loc with
  | 0 -> String.compare a.message b.message
  | c -> c

let sort_errors errors = List.stable_sort compare_error errors

type env = { parties : (string, Party.t) Hashtbl.t; mutable errors : error list }

let new_env () = { parties = Hashtbl.create 16; errors = [] }

let err env loc fmt =
  Format.kasprintf (fun message -> env.errors <- { message; loc } :: env.errors) fmt

let declare env (name : string Loc.located) party =
  if Hashtbl.mem env.parties name.Loc.value then
    err env name.Loc.loc "party %s declared twice" name.Loc.value
  else Hashtbl.replace env.parties name.Loc.value party

let lookup env (name : string Loc.located) =
  match Hashtbl.find_opt env.parties name.Loc.value with
  | Some party -> Some party
  | None ->
    err env name.Loc.loc "undeclared party %s" name.Loc.value;
    None

let lookup_principal env name =
  match lookup env name with
  | Some party when Party.is_principal party -> Some party
  | Some party ->
    err env name.Loc.loc "%s is a trusted agent, expected a principal" (Party.name party);
    None
  | None -> None

let lookup_trusted env name =
  match lookup env name with
  | Some party when Party.is_trusted party -> Some party
  | Some party ->
    err env name.Loc.loc "%s is a principal, expected a trusted agent" (Party.name party);
    None
  | None -> None

let role_of = function
  | Ast.Consumer -> Intern.consumer
  | Ast.Producer -> Intern.producer
  | Ast.Broker -> Intern.broker

let asset_of = function
  | Ast.Pays cents -> Intern.money cents
  | Ast.Gives doc -> Intern.document doc

let side_of = function Ast.Buyer -> Spec.Left | Ast.Seller -> Spec.Right

let cref_of env deal_ids (c : Ast.cref) =
  if not (Hashtbl.mem deal_ids c.Ast.deal.Loc.value) then
    err env c.Ast.deal.Loc.loc "unknown deal %s" c.Ast.deal.Loc.value;
  { Spec.deal = c.Ast.deal.Loc.value; side = side_of c.Ast.side }

(* Parties are unique by name within a program, so a deal's unordered
   pair of principal names identifies the deals a [trust] joins. *)
let pair_key a b =
  let a = Party.name a and b = Party.name b in
  if String.compare a b <= 0 then (a, b) else (b, a)

(* Deals by [pair_key] of their principals, each list in program order. *)
let deals_by_pair deals =
  let index = Hashtbl.create 16 in
  List.iter
    (fun (d : Spec.deal) ->
      let key = pair_key d.Spec.left d.Spec.right in
      Hashtbl.replace index key (d :: Option.value ~default:[] (Hashtbl.find_opt index key)))
    (List.rev deals);
  index

let program decls =
  let env = new_env () in
  (* Pass 1: declarations. *)
  List.iter
    (function
      | Ast.Principal { name; role } -> declare env name (role_of role name.Loc.value)
      | Ast.Trusted name -> declare env name (Intern.trusted name.Loc.value)
      | Ast.Deal _ | Ast.Priority _ | Ast.Split _ | Ast.Trust _ | Ast.Persona _ -> ()
      | Ast.Relay name | Ast.Request { id = name; _ } ->
        err env name.Loc.loc "web declarations need a web program (requests present)")
    decls;
  (* Pass 2: deals. *)
  let deals =
    List.filter_map
      (function
        | Ast.Deal { id; first; second; via; deadline } -> (
          let left = lookup_principal env first.Ast.party in
          let right = lookup_principal env second.Ast.party in
          let via_party = lookup_trusted env via in
          match (left, right, via_party) with
          | Some left, Some right, Some via ->
            let d =
              Spec.deal ~id:id.Loc.value ~left ~right ~via
                ~left_sends:(asset_of first.Ast.asset)
                ~right_sends:(asset_of second.Ast.asset)
            in
            Some
              (match deadline with Some n -> Spec.with_deadline n d | None -> d)
          | _ -> None)
        | _ -> None)
      decls
  in
  (* Pass 3: marks and personas, each accumulated in reverse. *)
  let deal_ids = Hashtbl.create 16 in
  List.iter (fun (d : Spec.deal) -> Hashtbl.replace deal_ids d.Spec.id ()) deals;
  let by_pair = lazy (deals_by_pair deals) in
  let priorities = ref [] and splits = ref [] and personas = ref [] in
  List.iter
    (function
      | Ast.Priority { owner; target } -> (
        match lookup env owner with
        | Some party -> priorities := (party, cref_of env deal_ids target) :: !priorities
        | None -> ())
      | Ast.Split { owner; target } -> (
        match lookup env owner with
        | Some party -> splits := (party, cref_of env deal_ids target) :: !splits
        | None -> ())
      | Ast.Persona { trusted; principal } -> (
        match (lookup_trusted env trusted, lookup_principal env principal) with
        | Some t, Some p -> personas := (t, p) :: !personas
        | _ -> ())
      | Ast.Trust { truster; trustee } -> (
        match (lookup_principal env truster, lookup_principal env trustee) with
        | Some a, Some b -> (
          match Hashtbl.find_opt (Lazy.force by_pair) (pair_key a b) with
          | None ->
            err env truster.Loc.loc "trust %s -> %s joins no deal" truster.Loc.value
              trustee.Loc.value
          | Some joining ->
            List.iter (fun (d : Spec.deal) -> personas := (d.Spec.via, b) :: !personas) joining)
        | _ -> ())
      | Ast.Principal _ | Ast.Trusted _ | Ast.Deal _ | Ast.Relay _ | Ast.Request _ -> ())
    decls;
  match List.rev env.errors with
  | _ :: _ as errors -> Error (sort_errors errors)
  | [] -> (
    match
      Spec.make ~personas:(List.rev !personas) ~priorities:(List.rev !priorities)
        ~splits:(List.rev !splits) deals
    with
    | Ok spec -> Ok spec
    | Error messages ->
      Error (List.map (fun message -> { message; loc = Loc.start }) messages))

type web = {
  trusts : (Party.t * Party.t) list;
  relays : Party.t list;
  requests : (string * Party.t * string * Party.t * Asset.money) list;
}

let is_web decls = List.exists (function Ast.Request _ -> true | _ -> false) decls

let web decls =
  let env = new_env () in
  List.iter
    (function
      | Ast.Principal { name; role } -> declare env name (role_of role name.Loc.value)
      | Ast.Trusted name -> declare env name (Intern.trusted name.Loc.value)
      | Ast.Deal { id; _ } ->
        err env id.Loc.loc "web programs route requests; explicit deals are not allowed"
      | Ast.Priority { owner; _ } | Ast.Split { owner; _ } ->
        err env owner.Loc.loc "priorities and splits come from routing in a web program"
      | Ast.Persona { trusted; _ } ->
        err env trusted.Loc.loc "personas come from trust edges in a web program"
      | Ast.Trust _ | Ast.Relay _ | Ast.Request _ -> ())
    decls;
  let trusts = ref [] and relays = ref [] and requests = ref [] in
  let seen_requests = Hashtbl.create 16 in
  List.iter
    (function
      | Ast.Trust { truster; trustee } -> (
        match (lookup env truster, lookup env trustee) with
        | Some a, Some b ->
          if Party.is_trusted a then
            err env truster.Loc.loc "a trusted agent cannot be a truster"
          else trusts := (a, b) :: !trusts
        | _ -> ())
      | Ast.Relay name -> (
        match lookup_principal env name with
        | Some p -> relays := p :: !relays
        | None -> ())
      | Ast.Request { id; buyer; good; seller; price } -> (
        if Hashtbl.mem seen_requests id.Loc.value then
          err env id.Loc.loc "request %s declared twice" id.Loc.value
        else Hashtbl.replace seen_requests id.Loc.value ();
        match (lookup_principal env buyer, lookup_principal env seller) with
        | Some b, Some s -> requests := (id.Loc.value, b, good, s, price) :: !requests
        | _ -> ())
      | Ast.Principal _ | Ast.Trusted _ | Ast.Deal _ | Ast.Priority _ | Ast.Split _
      | Ast.Persona _ -> ())
    decls;
  (if !requests = [] then
     err env Loc.start "a web program needs at least one request");
  match List.rev env.errors with
  | _ :: _ as errors -> Error (sort_errors errors)
  | [] -> Ok { trusts = List.rev !trusts; relays = List.rev !relays; requests = List.rev !requests }

let render_errors ?file errors =
  String.concat "\n" (List.map (fun e -> Format.asprintf "%a" (pp_error ?file) e) errors)

module Obs = Trust_obs.Obs

(* Tracing wrappers for the two front-end phases. Spans carry virtual
   sizes only (bytes in, declaration counts, error counts), so traces
   stay deterministic; the null sink records nothing. *)
let traced_parse obs parent src =
  Obs.with_span obs ?parent ~phase:"parse" "parse" (fun h ->
      let r = Parser.parse src in
      if Obs.enabled obs then begin
        Obs.attr obs h "bytes" (Obs.Int (String.length src));
        match r with
        | Ok ast -> Obs.attr obs h "decls" (Obs.Int (List.length ast))
        | Error _ -> Obs.attr obs h "error" (Obs.Bool true)
      end;
      r)

let traced_elaborate obs parent ast =
  Obs.with_span obs ?parent ~phase:"elaborate" "elaborate" (fun h ->
      let r = program ast in
      if Obs.enabled obs then begin
        match r with
        | Ok spec ->
          Obs.attr obs h "parties" (Obs.Int (List.length (Spec.parties spec)));
          Obs.attr obs h "deals" (Obs.Int (List.length spec.Spec.deals))
        | Error errors -> Obs.attr obs h "errors" (Obs.Int (List.length errors))
      end;
      r)

let from_string ?(obs = Obs.null) ?parent ?file src =
  match traced_parse obs parent src with
  | Error e -> Error (Format.asprintf "%a" (Parser.pp_error ?file) e)
  | Ok ast -> (
    match traced_elaborate obs parent ast with
    | Ok spec -> Ok spec
    | Error errors -> Error (render_errors ?file errors))

let from_file ?obs ?parent path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> from_string ?obs ?parent ~file:path src
  | exception Sys_error message -> Error message

let web_from_string ?file src =
  match Parser.parse src with
  | Error e -> Error (Format.asprintf "%a" (Parser.pp_error ?file) e)
  | Ok ast -> (
    match web ast with
    | Ok w -> Ok w
    | Error errors -> Error (render_errors ?file errors))

let web_from_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> web_from_string ~file:path src
  | exception Sys_error message -> Error message
