let build pairs n =
  let b = Graph.Builder.create n in
  List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge b u v)) pairs;
  Graph.Builder.build b

let test_empty_graph () =
  let g = build [] 4 in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 0 (Graph.edge_count g);
  Alcotest.(check int) "degree" 0 (Graph.degree g 0)

let test_builder_dedup () =
  let b = Graph.Builder.create 3 in
  Alcotest.(check bool) "first insert" true (Graph.Builder.add_edge b 0 1);
  Alcotest.(check bool) "duplicate" false (Graph.Builder.add_edge b 0 1);
  Alcotest.(check bool) "reversed duplicate" false (Graph.Builder.add_edge b 1 0);
  Alcotest.(check int) "count" 1 (Graph.Builder.edge_count b);
  Alcotest.(check bool) "mem" true (Graph.Builder.mem_edge b 1 0)

let test_builder_errors () =
  let b = Graph.Builder.create 3 in
  let self_loop = Invalid_argument "Graph.Builder: self-loop"
  and range = Invalid_argument "Graph.Builder: endpoint out of range" in
  Alcotest.check_raises "self loop" self_loop (fun () -> ignore (Graph.Builder.add_edge b 1 1));
  Alcotest.check_raises "mem self loop" self_loop (fun () ->
      ignore (Graph.Builder.mem_edge b 2 2));
  Alcotest.check_raises "range" range (fun () -> ignore (Graph.Builder.add_edge b 0 3));
  Alcotest.check_raises "negative endpoint" range (fun () ->
      ignore (Graph.Builder.add_edge b (-1) 2));
  Alcotest.check_raises "mem range" range (fun () -> ignore (Graph.Builder.mem_edge b 3 0));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Graph.Builder.create: negative node count") (fun () ->
      ignore (Graph.Builder.create (-1)));
  Alcotest.(check int) "failed inserts add nothing" 0 (Graph.Builder.edge_count b)

let test_neighbors_sorted () =
  let g = build [ (2, 0); (2, 4); (2, 1); (2, 3) ] 5 in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbor_nodes g 2);
  Alcotest.(check int) "degree" 4 (Graph.degree g 2)

let test_endpoints_normalized () =
  let g = build [ (3, 1) ] 4 in
  Alcotest.(check (pair int int)) "u < v" (1, 3) (Graph.edge_endpoints g 0)

let test_find_edge () =
  let g = build [ (0, 1); (1, 2); (0, 3) ] 4 in
  Alcotest.(check bool) "finds" true (Graph.find_edge g 1 0 <> None);
  Alcotest.(check (option int)) "missing" None (Graph.find_edge g 2 3);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 0 3);
  (match Graph.find_edge g 1 2 with
  | Some eid -> Alcotest.(check (pair int int)) "right edge" (1, 2) (Graph.edge_endpoints g eid)
  | None -> Alcotest.fail "edge 1-2 not found")

let test_iter_edges () =
  let g = build [ (0, 1); (1, 2) ] 3 in
  let seen = ref [] in
  Graph.iter_edges g (fun eid u v -> seen := (eid, u, v) :: !seen);
  Alcotest.(check int) "two edges" 2 (List.length !seen);
  List.iter (fun (_, u, v) -> Alcotest.(check bool) "normalized" true (u < v)) !seen

let test_iter_neighbors_edge_ids () =
  let g = build [ (0, 1); (0, 2) ] 3 in
  Graph.iter_neighbors g 0 (fun v eid ->
      Alcotest.(check (pair int int)) "eid consistent" (0, v) (Graph.edge_endpoints g eid))

let test_max_degree () =
  let g = build [ (0, 1); (0, 2); (0, 3); (1, 2) ] 4 in
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g)

let test_of_edge_list () =
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check int) "coalesced" 2 (Graph.edge_count g)

let test_induced_subgraph () =
  let g = build [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] 4 in
  let sub, mapping = Graph.induced_subgraph g [| 0; 1; 2 |] in
  Alcotest.(check int) "nodes" 3 (Graph.node_count sub);
  Alcotest.(check int) "edges kept" 3 (Graph.edge_count sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping

let prop_adjacency_consistent =
  QCheck2.Test.make ~name:"adjacency mirrors edge list" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 11) (int_range 0 11)))
    (fun pairs ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let g = Graph.of_edge_list 12 pairs in
      let ok = ref true in
      Graph.iter_edges g (fun eid u v ->
          if Graph.find_edge g u v <> Some eid then ok := false;
          if Graph.find_edge g v u <> Some eid then ok := false);
      (* degree sums to 2m *)
      let degsum = ref 0 in
      for v = 0 to 11 do
        degsum := !degsum + Graph.degree g v
      done;
      !ok && !degsum = 2 * Graph.edge_count g)

(* The builder against a naive reference: edge ids in first-insertion
   order of the normalised pairs, each row the sorted (neighbour, edge
   id) pairs, both computed with lists and sorts. *)
let reference_build n pairs =
  let norm (u, v) = if u < v then (u, v) else (v, u) in
  let edges =
    List.fold_left
      (fun acc p -> if List.mem (norm p) acc then acc else norm p :: acc)
      [] pairs
    |> List.rev |> Array.of_list
  in
  let rows =
    Array.init n (fun i ->
        let row = ref [] in
        Array.iteri
          (fun e (u, v) ->
            if u = i then row := (v, e) :: !row;
            if v = i then row := (u, e) :: !row)
          edges;
        Array.of_list (List.sort compare !row))
  in
  (edges, rows)

let prop_builder_matches_reference =
  QCheck2.Test.make ~name:"Builder.build equals the naive reference" ~count:300
    QCheck2.Gen.(
      int_range 0 14 >>= fun n ->
      let pair = pair (int_range 0 (max 0 (n - 1))) (int_range 0 (max 0 (n - 1))) in
      map (fun ps -> (n, ps)) (list_size (int_range 0 60) pair))
    (fun (n, pairs) ->
      (* n in {0, 1} admits no edge: every pair is a self-loop or out of range *)
      let pairs = List.filter (fun (u, v) -> u <> v && u < n && v < n) pairs in
      (* duplicates and reversed pairs on purpose *)
      let pairs = pairs @ List.map (fun (u, v) -> (v, u)) (List.filteri (fun i _ -> i mod 3 = 0) pairs) in
      let b = Graph.Builder.create n in
      let answers = List.map (fun (u, v) -> Graph.Builder.add_edge b u v) pairs in
      let g = Graph.Builder.build b in
      let edges, rows = reference_build n pairs in
      let fresh =
        List.rev
          (snd
             (List.fold_left
                (fun (seen, acc) (u, v) ->
                  let k = (min u v, max u v) in
                  if List.mem k seen then (seen, false :: acc) else (k :: seen, true :: acc))
                ([], []) pairs))
      in
      answers = fresh
      && Graph.node_count g = n
      && Graph.Builder.edge_count b = Array.length edges
      && Array.init (Graph.edge_count g) (Graph.edge_endpoints g) = edges
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                Graph.neighbors g i = rows.(i) && Graph.degree g i = Array.length rows.(i))))

(* Digests of every Workloads family at two seeds: the edge array, the
   adjacency rows and the Preference.random lists, pinned from the
   tuple-based graph this CSR replaced.  Edge ids, neighbour order and
   the preference draws must not move. *)
let golden =
  [
    ("gnp:0.1", 1, 308, "59a3e399ca97e59ce4ed3f712a708e77");
    ("gnp:0.1", 2, 318, "b1711c0ecc042e9b505426499dbca832");
    ("deg:6", 1, 240, "cc5008fc81a5ca848ffb52071df91405");
    ("deg:6", 2, 240, "c7ecde1f8b3a97b9e0c5c40a22ef72fd");
    ("ba:3", 1, 234, "afd05e6d35443aad282b842a61da4b70");
    ("ba:3", 2, 234, "251d93d668b74a13646356c5fac690c6");
    ("ws:3:0.2", 1, 240, "f9b73b2aafc27f3496b91a5906465984");
    ("ws:3:0.2", 2, 240, "99e59571a4a0e0e012596de8c2fff287");
    ("geo:0.2", 1, 309, "00d0e25ec2f71f3d1fb1cd8004685c91");
    ("geo:0.2", 2, 323, "50f6f7ae4525eefe72324ce5174c3ddf");
    ("torus", 1, 128, "88f25aefa86eb218138097ab1b5cc286");
    ("torus", 2, 128, "f33d54b82b8e9cc36353e0ee10de83bd");
    ("pl:2.5:2", 1, 178, "e4b37b5c28c88854810c0d3b94f33dfd");
    ("pl:2.5:2", 2, 143, "2c03c3ebaf0ff8501e5dadf520e42da7");
  ]

let instance_digest (inst : Owp_bench.Workloads.instance) =
  let g = inst.Owp_bench.Workloads.graph and buf = Buffer.create 4096 in
  Graph.iter_edges g (fun _ u v -> Printf.bprintf buf "%d-%d," u v);
  for i = 0 to Graph.node_count g - 1 do
    Buffer.add_char buf '|';
    Array.iter (fun (v, e) -> Printf.bprintf buf "%d:%d," v e) (Graph.neighbors g i);
    Buffer.add_char buf '/';
    Array.iter (Printf.bprintf buf "%d,") (Preference.list inst.Owp_bench.Workloads.prefs i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_digests () =
  let module W = Owp_bench.Workloads in
  List.iter
    (fun (spec, seed, m, digest) ->
      let family = Result.get_ok (W.family_of_string spec) in
      let inst = W.make ~seed ~family ~pref_model:W.Random_prefs ~n:80 ~quota:3 in
      let label = Printf.sprintf "%s seed %d" spec seed in
      Alcotest.(check int) (label ^ " edges") m (Graph.edge_count inst.W.graph);
      Alcotest.(check string) label digest (instance_digest inst))
    golden

(* The size hint only presizes the builder: every add answer, edge id
   and adjacency row is the unhinted builder's, whether the hint is
   short of, equal to or beyond the final edge count. *)
let prop_builder_hint_changes_nothing =
  QCheck2.Test.make ~name:"Builder size hint changes no answer, id or row" ~count:200
    QCheck2.Gen.(
      int_range 2 14 >>= fun n ->
      let pair = pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
      triple (return n) (list_size (int_range 0 60) pair) (int_range 0 80))
    (fun (n, pairs, hint) ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let fill b =
        let answers = List.map (fun (u, v) -> Graph.Builder.add_edge b u v) pairs in
        (answers, Graph.Builder.build b)
      in
      let a0, g0 = fill (Graph.Builder.create n) in
      let a1, g1 = fill (Graph.Builder.create ~edges:hint n) in
      a0 = a1
      && Array.init (Graph.edge_count g0) (Graph.edge_endpoints g0)
         = Array.init (Graph.edge_count g1) (Graph.edge_endpoints g1)
      && Array.for_all Fun.id
           (Array.init n (fun i -> Graph.neighbors g0 i = Graph.neighbors g1 i)))

let test_builder_negative_hint () =
  Alcotest.check_raises "negative edge hint"
    (Invalid_argument "Graph.Builder.create: negative edge hint") (fun () ->
      ignore (Graph.Builder.create ~edges:(-1) 3))

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "builder dedup" `Quick test_builder_dedup;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
    Alcotest.test_case "endpoints normalized" `Quick test_endpoints_normalized;
    Alcotest.test_case "find_edge" `Quick test_find_edge;
    Alcotest.test_case "iter_edges" `Quick test_iter_edges;
    Alcotest.test_case "iter_neighbors edge ids" `Quick test_iter_neighbors_edge_ids;
    Alcotest.test_case "max_degree" `Quick test_max_degree;
    Alcotest.test_case "of_edge_list" `Quick test_of_edge_list;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    QCheck_alcotest.to_alcotest prop_adjacency_consistent;
    QCheck_alcotest.to_alcotest prop_builder_matches_reference;
    Alcotest.test_case "golden digests of every family" `Quick test_golden_digests;
    QCheck_alcotest.to_alcotest prop_builder_hint_changes_nothing;
    Alcotest.test_case "builder rejects a negative hint" `Quick test_builder_negative_hint;
  ]
