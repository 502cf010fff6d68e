type transfer = { source : Party.t; target : Party.t; asset : Asset.t }

type t =
  | Do of transfer
  | Undo of transfer
  | Notify of { agent : Party.t; informed : Party.t }

let transfer source target asset = Do { source; target; asset }
let give a b d = transfer a b (Asset.document d)
let pay b a m = transfer b a (Asset.money m)

let undo = function
  | Do tr -> Undo tr
  | Undo _ | Notify _ -> invalid_arg "Action.undo: not a Do action"

let notify ~agent ~informed = Notify { agent; informed }

let performer = function
  | Do tr -> tr.source
  | Undo tr -> tr.target
  | Notify { agent; _ } -> agent

let beneficiary = function
  | Do tr -> tr.target
  | Undo tr -> tr.source
  | Notify { informed; _ } -> informed

let compare_transfer a b =
  if a == b then 0
  else
    let c = Party.compare a.source b.source in
    if c <> 0 then c
    else
      let c = Party.compare a.target b.target in
      if c <> 0 then c else Asset.compare a.asset b.asset

let compare a b =
  if a == b then 0
  else
    match (a, b) with
  | Do ta, Do tb -> compare_transfer ta tb
  | Undo ta, Undo tb -> compare_transfer ta tb
  | Notify na, Notify nb ->
    let c = Party.compare na.agent nb.agent in
    if c <> 0 then c else Party.compare na.informed nb.informed
  | Do _, (Undo _ | Notify _) -> -1
  | Undo _, Do _ -> 1
  | Undo _, Notify _ -> -1
  | Notify _, (Do _ | Undo _) -> 1

let equal a b = a == b || compare a b = 0

(* a plain string, [pp] derived from it (see [Asset.to_string]) *)
let to_string t =
  let transfer verb tr =
    String.concat ""
      [ verb; "["; Party.name tr.source; " -> "; Party.name tr.target; "]("; Asset.to_string tr.asset; ")" ]
  in
  match t with
  | Do ({ asset = Asset.Money _; _ } as tr) -> transfer "pay" tr
  | Do tr -> transfer "give" tr
  | Undo ({ asset = Asset.Money _; _ } as tr) -> transfer "pay⁻¹" tr
  | Undo tr -> transfer "give⁻¹" tr
  | Notify { agent; informed } ->
    String.concat "" [ "notify["; Party.name agent; " -> "; Party.name informed; "]" ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Pattern = struct
  type party_pat = Exactly of Party.t | Any_party | Any_trusted | Any_principal

  type asset_pat =
    | Exact_asset of Asset.t
    | Any_document
    | Money_at_least of Asset.money
    | Any_asset

  type action = t

  type t =
    | P_do of party_pat * party_pat * asset_pat
    | P_undo of party_pat * party_pat * asset_pat
    | P_notify of party_pat * party_pat

  let of_action = function
    | Do tr -> P_do (Exactly tr.source, Exactly tr.target, Exact_asset tr.asset)
    | Undo tr -> P_undo (Exactly tr.source, Exactly tr.target, Exact_asset tr.asset)
    | Notify { agent; informed } -> P_notify (Exactly agent, Exactly informed)

  let party_matches pat party =
    match pat with
    | Exactly p -> Party.equal p party
    | Any_party -> true
    | Any_trusted -> Party.is_trusted party
    | Any_principal -> Party.is_principal party

  let asset_matches pat asset =
    match pat with
    | Exact_asset a -> Asset.equal a asset
    | Any_document -> Asset.is_document asset
    | Money_at_least m -> ( match Asset.amount asset with Some m' -> m' >= m | None -> false)
    | Any_asset -> true

  let matches pat action =
    match (pat, action) with
    | P_do (ps, pt, pa), Do tr ->
      party_matches ps tr.source && party_matches pt tr.target && asset_matches pa tr.asset
    | P_undo (ps, pt, pa), Undo tr ->
      party_matches ps tr.source && party_matches pt tr.target && asset_matches pa tr.asset
    | P_notify (pa, pi), Notify { agent; informed } ->
      party_matches pa agent && party_matches pi informed
    | (P_do _ | P_undo _ | P_notify _), _ -> false

  let pp_party_pat ppf = function
    | Exactly p -> Format.pp_print_string ppf (Party.name p)
    | Any_party -> Format.pp_print_string ppf "*"
    | Any_trusted -> Format.pp_print_string ppf "*t"
    | Any_principal -> Format.pp_print_string ppf "*p"

  let pp_asset_pat ppf = function
    | Exact_asset a -> Asset.pp ppf a
    | Any_document -> Format.pp_print_string ppf "doc(*)"
    | Money_at_least m -> Format.fprintf ppf ">=%a" Asset.pp_money m
    | Any_asset -> Format.pp_print_string ppf "*"

  let pp ppf = function
    | P_do (s, t, a) ->
      Format.fprintf ppf "do[%a -> %a](%a)" pp_party_pat s pp_party_pat t pp_asset_pat a
    | P_undo (s, t, a) ->
      Format.fprintf ppf "undo[%a -> %a](%a)" pp_party_pat s pp_party_pat t pp_asset_pat a
    | P_notify (a, i) -> Format.fprintf ppf "notify[%a -> %a]" pp_party_pat a pp_party_pat i
end
