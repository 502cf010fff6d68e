open Exchange

type offer = {
  piece : Spec.commitment_ref;
  owner : Party.t;
  offered_by : Party.t;
  via : Party.t;
  amount : Asset.money;
}

type plan = { offers : offer list; total : Asset.money }

let offer_for spec ~owner piece =
  match Spec.find_deal spec piece.Spec.deal with
  | None -> invalid_arg ("Indemnity.offer_for: unknown deal " ^ piece.Spec.deal)
  | Some d ->
    let offered_by = Spec.commitment_principal d (Spec.other_side piece.Spec.side) in
    {
      piece;
      owner;
      offered_by;
      via = d.Spec.via;
      amount = Spec.indemnity_amount spec owner piece;
    }

let linked_pieces spec ~owner =
  List.filter
    (fun cref ->
      match Spec.find_deal spec cref.Spec.deal with
      | Some d -> Party.equal (Spec.commitment_principal d cref.Spec.side) owner
      | None -> false)
    (Spec.linked_commitments_of spec owner)

let splittable spec ~owner =
  Party.is_principal owner
  && (not (List.exists (fun (o, _) -> Party.equal o owner) spec.Spec.priorities))
  && List.length (linked_pieces spec ~owner) >= 2

let plan_for_order spec ~owner order =
  let pieces = linked_pieces spec ~owner in
  let is_permutation =
    List.length order = List.length pieces
    && List.for_all (fun c -> List.exists (Spec.equal_ref c) pieces) order
    && List.for_all (fun c -> List.exists (Spec.equal_ref c) order) pieces
  in
  if not is_permutation then
    invalid_arg "Indemnity.plan_for_order: not a permutation of the owner's pieces";
  let rec covered = function
    | [] | [ _ ] -> []  (* the last piece needs no indemnity *)
    | piece :: rest -> offer_for spec ~owner piece :: covered rest
  in
  let offers = covered order in
  { offers; total = List.fold_left (fun acc o -> acc + o.amount) 0 offers }

let by_cost spec ~owner ~descending pieces =
  let cost c = Spec.cost_to spec owner c in
  let cmp a b =
    let c = Int.compare (cost a) (cost b) in
    if c <> 0 then if descending then -c else c else 0
  in
  List.stable_sort cmp pieces

let plan_greedy spec ~owner =
  plan_for_order spec ~owner (by_cost spec ~owner ~descending:true (linked_pieces spec ~owner))

let plan_worst spec ~owner =
  plan_for_order spec ~owner (by_cost spec ~owner ~descending:false (linked_pieces spec ~owner))

let permutations items =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: rest -> (x :: y :: rest) :: List.map (fun p -> y :: p) (insert_everywhere x rest)
  in
  List.fold_left
    (fun perms x -> List.concat_map (insert_everywhere x) perms)
    [ [] ] items

let exhaustive_minimum spec ~owner =
  let pieces = linked_pieces spec ~owner in
  if List.length pieces > 8 then
    invalid_arg "Indemnity.exhaustive_minimum: too many pieces for brute force";
  List.fold_left
    (fun best order -> min best (plan_for_order spec ~owner order).total)
    max_int (permutations pieces)

let apply plan spec = Spec.with_splits (List.map (fun o -> (o.owner, o.piece)) plan.offers) spec

let deposit_transfer o = Action.{ source = o.offered_by; target = o.via; asset = Asset.money o.amount }
let forfeit_transfer o = Action.{ source = o.via; target = o.owner; asset = Asset.money o.amount }

let deposits plan = List.map (fun o -> Action.Do (deposit_transfer o)) plan.offers
let refunds plan = List.map (fun o -> Action.Undo (deposit_transfer o)) plan.offers

let pp_offer ppf o =
  Format.fprintf ppf "%s escrows %a with %s to cover %a for %s" (Party.name o.offered_by)
    Asset.pp_money o.amount (Party.name o.via) Spec.pp_ref o.piece (Party.name o.owner)

let pp_plan ppf plan =
  Format.fprintf ppf "@[<v>indemnity plan, total %a:@,%a@]" Asset.pp_money plan.total
    (Format.pp_print_list pp_offer) plan.offers
