let path n = Gen.path n

let test_components_connected () =
  let g = path 5 in
  let labels, count = Metrics.connected_components g in
  Alcotest.(check int) "one component" 1 count;
  Alcotest.(check bool) "all same" true (Array.for_all (fun l -> l = labels.(0)) labels);
  Alcotest.(check bool) "is_connected" true (Metrics.is_connected g)

let test_components_disjoint () =
  let g = Graph.of_edge_list 6 [ (0, 1); (2, 3) ] in
  let _, count = Metrics.connected_components g in
  Alcotest.(check int) "four components" 4 count;
  Alcotest.(check bool) "not connected" false (Metrics.is_connected g)

let test_bfs_distances () =
  let g = path 5 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4 |] (Metrics.bfs_distances g 0);
  let g2 = Graph.of_edge_list 4 [ (0, 1) ] in
  let d = Metrics.bfs_distances g2 0 in
  Alcotest.(check int) "unreachable" (-1) d.(3)

let test_diameter_bound () =
  Alcotest.(check int) "path diameter" 9 (Metrics.eccentricity_lower_bound (path 10));
  Alcotest.(check int) "complete diameter" 1
    (Metrics.eccentricity_lower_bound (Gen.complete 6))

let test_density_and_degree () =
  let g = Gen.complete 5 in
  Alcotest.(check (float 1e-9)) "complete density" 1.0 (Metrics.density g);
  Alcotest.(check (float 1e-9)) "avg degree" 4.0 (Metrics.average_degree g)

let test_triangles () =
  Alcotest.(check int) "K4 triangles" 4 (Metrics.triangle_count (Gen.complete 4));
  Alcotest.(check int) "path no triangles" 0 (Metrics.triangle_count (path 6));
  let tri = Graph.of_edge_list 3 [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check int) "one triangle" 1 (Metrics.triangle_count tri)

let test_clustering () =
  Alcotest.(check (float 1e-9)) "complete clustering" 1.0
    (Metrics.global_clustering (Gen.complete 5));
  Alcotest.(check (float 1e-9)) "tree clustering" 0.0
    (Metrics.global_clustering (Gen.star 6))

let test_clustering_mixed () =
  (* triangle plus pendant: node degrees 2,2,3,1, so 1 + 1 + 3 open
     triads close one triangle *)
  let g = Graph.of_edge_list 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check (float 1e-9)) "global" (3.0 /. 5.0) (Metrics.global_clustering g)

let test_assortativity () =
  (* star: every edge joins the hub (degree n-1) to a leaf (degree 1) —
     perfectly disassortative *)
  Alcotest.(check (float 1e-9)) "star" (-1.0) (Metrics.degree_assortativity (Gen.star 8));
  (* regular graphs have constant degree: correlation undefined -> 0 *)
  Alcotest.(check (float 1e-9)) "ring" 0.0 (Metrics.degree_assortativity (Gen.ring 10));
  Alcotest.(check (float 1e-9)) "complete" 0.0
    (Metrics.degree_assortativity (Gen.complete 6));
  (* tiny graphs *)
  Alcotest.(check (float 1e-9)) "single edge" 0.0
    (Metrics.degree_assortativity (Graph.of_edge_list 2 [ (0, 1) ]));
  (* BA graphs are disassortative *)
  let ba = Gen.barabasi_albert (Owp_util.Prng.create 4) ~n:300 ~m:3 in
  Alcotest.(check bool) "BA negative" true (Metrics.degree_assortativity ba < 0.0);
  (* value always in [-1, 1] *)
  let g = Gen.gnm (Owp_util.Prng.create 5) ~n:80 ~m:200 in
  let r = Metrics.degree_assortativity g in
  Alcotest.(check bool) "in range" true (r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "assortativity" `Quick test_assortativity;
    Alcotest.test_case "components connected" `Quick test_components_connected;
    Alcotest.test_case "components disjoint" `Quick test_components_disjoint;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "diameter bound" `Quick test_diameter_bound;
    Alcotest.test_case "density and degree" `Quick test_density_and_degree;
    Alcotest.test_case "triangles" `Quick test_triangles;
    Alcotest.test_case "clustering" `Quick test_clustering;
    Alcotest.test_case "clustering mixed" `Quick test_clustering_mixed;
  ]
