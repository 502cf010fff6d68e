open Exchange

let consumer = Party.consumer "c"
let producer = Party.producer "p"

(* Links are numbered from the consumer: link 0 is consumer <-> broker 1,
   link i is broker i <-> broker i+1, link n is broker n <-> producer.
   Deals are listed producer-end first so the deterministic reducer
   unwinds the chain the way §4.2.2 walks Example #1. *)
let chain_spec ~brokers:n ~direct =
  if n < 0 then invalid_arg "Gen.chain: negative broker count";
  let broker i = Party.broker (Printf.sprintf "b%d" i) in
  let seller_of_link i = if i = n then producer else broker (i + 1) in
  let buyer_of_link i = if i = 0 then consumer else broker i in
  let price_of_link i = Asset.dollars (10 + n - i) in
  let link i =
    Spec.sale
      ~id:(Printf.sprintf "link%d" i)
      ~buyer:(buyer_of_link i) ~seller:(seller_of_link i)
      ~via:(Party.trusted (Printf.sprintf "t%d" i))
      ~price:(price_of_link i) ~good:"d"
  in
  let deals = List.init (n + 1) (fun k -> link (n - k)) in
  let priorities =
    (* Broker i sells on link i-1: it must have that buyer committed
       before it buys on link i. *)
    List.init n (fun k ->
        (broker (k + 1), { Spec.deal = Printf.sprintf "link%d" k; side = Spec.Right }))
  in
  let personas =
    if direct then List.init (n + 1) (fun i -> (Party.trusted (Printf.sprintf "t%d" i), seller_of_link i))
    else []
  in
  Spec.make_exn ~personas ~priorities deals

let chain ~brokers = chain_spec ~brokers ~direct:false
let chain_direct ~brokers = chain_spec ~brokers ~direct:true

let fan_consumer = consumer

let fan ~prices =
  if prices = [] then invalid_arg "Gen.fan: empty price list";
  let broker i = Party.broker (Printf.sprintf "b%d" i) in
  let source i = Party.producer (Printf.sprintf "s%d" i) in
  let deals_for idx price =
    let i = idx + 1 in
    let doc = Printf.sprintf "d%d" i in
    [
      Spec.sale
        ~id:(Printf.sprintf "b%ds%d" i i)
        ~buyer:(broker i) ~seller:(source i)
        ~via:(Party.trusted (Printf.sprintf "t%d" (2 * i)))
        ~price:(price * 8 / 10) ~good:doc;
      Spec.sale
        ~id:(Printf.sprintf "cb%d" i)
        ~buyer:consumer ~seller:(broker i)
        ~via:(Party.trusted (Printf.sprintf "t%d" ((2 * i) - 1)))
        ~price ~good:doc;
    ]
  in
  let deals = List.concat (List.mapi deals_for prices) in
  let priorities =
    List.mapi
      (fun idx _ ->
        (broker (idx + 1), { Spec.deal = Printf.sprintf "cb%d" (idx + 1); side = Spec.Right }))
      prices
  in
  Spec.make_exn ~priorities deals

let bundle ~docs:k =
  if k <= 0 then invalid_arg "Gen.bundle: needs at least one document";
  let deals =
    List.init k (fun idx ->
        let i = idx + 1 in
        Spec.sale
          ~id:(Printf.sprintf "cp%d" i)
          ~buyer:consumer
          ~seller:(Party.producer (Printf.sprintf "p%d" i))
          ~via:(Party.trusted (Printf.sprintf "t%d" i))
          ~price:(Asset.dollars (10 * i))
          ~good:(Printf.sprintf "d%d" i))
  in
  Spec.make_exn deals

type mix = {
  sale_weight : int;
  chain_weight : int;
  max_chain : int;
  fan_weight : int;
  max_fan : int;
  bundle_weight : int;
  max_bundle : int;
  trust_density : float;
}

let default_mix =
  {
    sale_weight = 4;
    chain_weight = 3;
    max_chain = 3;
    fan_weight = 2;
    max_fan = 4;
    bundle_weight = 1;
    max_bundle = 3;
    trust_density = 0.2;
  }

(* With probability [density] a deal's seller trusts its buyer, so the
   buyer plays the intermediary (§4.2.3 variant 1 — the direction that
   unblocks broker resales; the reverse direction provably does not). *)
let sprinkle_trust rng density spec =
  List.fold_left
    (fun spec d ->
      if Prng.float rng < density then
        Spec.with_persona ~trusted:d.Spec.via ~principal:d.Spec.left spec
      else spec)
    spec spec.Spec.deals

let random_transaction rng mix =
  let total = mix.sale_weight + mix.chain_weight + mix.fan_weight + mix.bundle_weight in
  if total <= 0 then invalid_arg "Gen.random_transaction: all weights zero";
  let roll = Prng.int rng total in
  let base =
    if roll < mix.sale_weight then chain ~brokers:0
    else if roll < mix.sale_weight + mix.chain_weight then
      chain ~brokers:(1 + Prng.int rng (max 1 mix.max_chain))
    else if roll < mix.sale_weight + mix.chain_weight + mix.fan_weight then
      let k = 1 + Prng.int rng (max 1 mix.max_fan) in
      fan ~prices:(List.init k (fun i -> Asset.dollars (10 * (i + 1))))
    else bundle ~docs:(1 + Prng.int rng (max 1 mix.max_bundle))
  in
  sprinkle_trust rng mix.trust_density base

let random_transactions rng mix n = List.init n (fun _ -> random_transaction rng mix)
