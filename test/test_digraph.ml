(* Unit and property tests for the generic directed-graph substrate. *)

module Digraph = Trust_graph.Digraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let path n =
  let g = Digraph.create () in
  let nodes = Array.of_list (Digraph.add_nodes g n) in
  for i = 0 to n - 2 do
    Digraph.add_edge g nodes.(i) nodes.(i + 1)
  done;
  g

let cycle n =
  let g = path n in
  Digraph.add_edge g (n - 1) 0;
  g

let test_empty () =
  let g = Digraph.create () in
  check_int "no nodes" 0 (Digraph.node_count g);
  check_int "no edges" 0 (Digraph.edge_count g);
  Alcotest.(check (list (pair int int))) "edges empty" [] (Digraph.edges g)

let test_add_node_ids () =
  let g = Digraph.create () in
  check_int "first id" 0 (Digraph.add_node g);
  check_int "second id" 1 (Digraph.add_node g);
  check_int "third id" 2 (Digraph.add_node g);
  check "mem 1" true (Digraph.mem_node g 1);
  check "not mem 3" false (Digraph.mem_node g 3);
  check "not mem -1" false (Digraph.mem_node g (-1))

let test_add_edge_dedup () =
  let g = path 2 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  check_int "parallel edges collapse" 1 (Digraph.edge_count g)

let test_add_edge_bogus () =
  let g = path 2 in
  Alcotest.check_raises "unknown node" (Invalid_argument "Digraph: node 5 not in graph of size 2")
    (fun () -> Digraph.add_edge g 0 5)

let test_remove_edge () =
  let g = path 3 in
  Digraph.remove_edge g 0 1;
  check "gone" false (Digraph.mem_edge g 0 1);
  check_int "one left" 1 (Digraph.edge_count g);
  (* removing twice is a no-op *)
  Digraph.remove_edge g 0 1;
  check_int "still one" 1 (Digraph.edge_count g)

let test_degrees () =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 3 0;
  check_int "out" 2 (Digraph.out_degree g 0);
  check_int "in" 1 (Digraph.in_degree g 0);
  check_int "total" 3 (Digraph.degree g 0);
  Alcotest.(check (list int)) "succ order" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "pred" [ 3 ] (Digraph.pred g 0)

let test_copy_independent () =
  let g = path 3 in
  let g' = Digraph.copy g in
  Digraph.remove_edge g 0 1;
  check "copy keeps edge" true (Digraph.mem_edge g' 0 1);
  check "original lost it" false (Digraph.mem_edge g 0 1)

let test_topo_path () =
  match Digraph.topological_sort (path 5) with
  | None -> Alcotest.fail "path must be acyclic"
  | Some order -> Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] order

let test_topo_cycle () =
  check "cycle has no topo order" true (Digraph.topological_sort (cycle 3) = None);
  check "has_cycle" true (Digraph.has_cycle (cycle 3));
  check "path has no cycle" false (Digraph.has_cycle (path 4))

let test_reachable () =
  let g = path 4 in
  check "0 reaches 3" true (Digraph.is_reachable g 0 3);
  check "3 does not reach 0" false (Digraph.is_reachable g 3 0);
  check "self reachable" true (Digraph.is_reachable g 2 2)

let test_scc_cycle () =
  let components = Digraph.scc (cycle 4) in
  check_int "one component" 1 (List.length components);
  Alcotest.(check (list int)) "all nodes" [ 0; 1; 2; 3 ]
    (List.sort compare (List.concat components))

let test_scc_dag () =
  let components = Digraph.scc (path 4) in
  check_int "four singletons" 4 (List.length components);
  List.iter (fun c -> check_int "singleton" 1 (List.length c)) components

let test_scc_two_cycles () =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g 5 in
  (* 0 <-> 1, 2 <-> 3 <-> 4, bridge 1 -> 2 *)
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 2;
  Digraph.add_edge g 3 4;
  Digraph.add_edge g 4 3;
  Digraph.add_edge g 1 2;
  let components = List.map (List.sort compare) (Digraph.scc g) in
  let sorted = List.sort compare components in
  Alcotest.(check (list (list int))) "two components" [ [ 0; 1 ]; [ 2; 3; 4 ] ] sorted

let test_components () =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g 5 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 3 2;
  let comps = List.map (List.sort compare) (Digraph.undirected_components g) in
  Alcotest.(check (list (list int))) "three components" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (List.sort compare comps)

let test_two_colouring_even () =
  match Digraph.two_colouring (cycle 4) with
  | None -> Alcotest.fail "even cycle is bipartite"
  | Some colour ->
    check "adjacent differ" true (colour 0 <> colour 1 && colour 1 <> colour 2)

let test_two_colouring_odd () =
  check "odd cycle not bipartite" true (Digraph.two_colouring (cycle 3) = None)

let test_dense_construction () =
  (* A complete graph on n nodes: with the old append-and-scan adjacency
     this was O(E * deg); the edge-table representation keeps it O(E).
     The size is big enough that a quadratic regression times out the
     suite rather than passing slowly. *)
  let n = 512 in
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.add_edge g u v
    done
  done;
  check_int "complete graph edge count" (n * (n - 1)) (Digraph.edge_count g);
  (* insertion order must survive the cons'd representation *)
  Alcotest.(check (list int)) "succ in insertion order"
    (List.filter (fun v -> v <> 0) (List.init n (fun i -> i)))
    (Digraph.succ g 0);
  Digraph.remove_edge g 0 1;
  check "removed" false (Digraph.mem_edge g 0 1);
  check_int "edge count after removal" ((n * (n - 1)) - 1) (Digraph.edge_count g)

let test_deep_chain_scc () =
  (* The iterative Tarjan must survive deep graphs that would overflow a
     naive recursive implementation's stack. *)
  let n = 200_000 in
  let components = Digraph.scc (path n) in
  check_int "all singletons" n (List.length components)

(* Properties *)

let gen_dag =
  QCheck2.Gen.(
    let* n = int_range 1 30 in
    let* edges = list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

let build_graph (n, edges) ~only_forward =
  let g = Digraph.create () in
  let _ = Digraph.add_nodes g n in
  List.iter
    (fun (u, v) ->
      if (not only_forward) || u < v then if u <> v then Digraph.add_edge g u v)
    edges;
  g

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topological order puts sources before targets" ~count:200 gen_dag
    (fun input ->
      let g = build_graph input ~only_forward:true in
      match Digraph.topological_sort g with
      | None -> false (* forward-only edges cannot cycle *)
      | Some order ->
        let position = Hashtbl.create 16 in
        List.iteri (fun i v -> Hashtbl.replace position v i) order;
        Digraph.fold_edges
          (fun u v ok -> ok && Hashtbl.find position u < Hashtbl.find position v)
          g true)

let prop_scc_is_partition =
  QCheck2.Test.make ~name:"scc components partition the nodes" ~count:200 gen_dag (fun input ->
      let g = build_graph input ~only_forward:false in
      let all = List.sort compare (List.concat (Digraph.scc g)) in
      all = Digraph.nodes g)

let prop_colouring_valid =
  QCheck2.Test.make ~name:"when a 2-colouring exists it is proper" ~count:200 gen_dag
    (fun input ->
      let g = build_graph input ~only_forward:false in
      match Digraph.two_colouring g with
      | None -> true
      | Some colour ->
        Digraph.fold_edges (fun u v ok -> ok && colour u <> colour v) g true)

let () =
  Alcotest.run "digraph"
    [
      ( "construction",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "node ids are dense" `Quick test_add_node_ids;
          Alcotest.test_case "parallel edges collapse" `Quick test_add_edge_dedup;
          Alcotest.test_case "edge to unknown node" `Quick test_add_edge_bogus;
          Alcotest.test_case "remove edge" `Quick test_remove_edge;
          Alcotest.test_case "degrees and adjacency" `Quick test_degrees;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent;
          Alcotest.test_case "dense construction is linear" `Quick test_dense_construction;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "topological sort of a path" `Quick test_topo_path;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "reachability" `Quick test_reachable;
          Alcotest.test_case "scc of a cycle" `Quick test_scc_cycle;
          Alcotest.test_case "scc of a dag" `Quick test_scc_dag;
          Alcotest.test_case "scc of two linked cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "undirected components" `Quick test_components;
          Alcotest.test_case "even cycle 2-colourable" `Quick test_two_colouring_even;
          Alcotest.test_case "odd cycle not 2-colourable" `Quick test_two_colouring_odd;
          Alcotest.test_case "iterative scc survives deep chains" `Slow test_deep_chain_scc;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_topo_respects_edges; prop_scc_is_partition; prop_colouring_valid ] );
    ]
