module Spath = Owp_graph.Spath
module Prng = Owp_util.Prng

let feq = Alcotest.(check (float 1e-9))

let weighted_path () =
  (* 0 -1.0- 1 -2.0- 2 -4.0- 3 *)
  let g = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let length = function 0 -> 1.0 | 1 -> 2.0 | _ -> 4.0 in
  (g, length)

let test_path_distances () =
  let g, length = weighted_path () in
  let d = Spath.dijkstra g ~length 0 in
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 3.0; 7.0 |] d

let test_unreachable () =
  let g = Graph.of_edge_list 3 [ (0, 1) ] in
  let d = Spath.dijkstra g ~length:(fun _ -> 1.0) 0 in
  Alcotest.(check bool) "infinite" true (d.(2) = infinity)

let test_shortcut_beats_long_edge () =
  (* triangle with a long direct edge and a short two-hop detour *)
  let g = Graph.of_edge_list 3 [ (0, 2); (0, 1); (1, 2) ] in
  let length eid =
    let u, v = Graph.edge_endpoints g eid in
    if (u, v) = (0, 2) then 10.0 else 1.0
  in
  let d = Spath.dijkstra g ~length 0 in
  feq "detour wins" 2.0 d.(2)

let test_negative_length_rejected () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  Alcotest.check_raises "negative" (Invalid_argument "Spath.dijkstra: negative length")
    (fun () -> ignore (Spath.dijkstra g ~length:(fun _ -> -1.0) 0))

let test_restricted () =
  let g, length = weighted_path () in
  let d = Spath.dijkstra ~allowed:(fun e -> e <> 1) g ~length 0 in
  feq "reachable part" 1.0 d.(1);
  Alcotest.(check bool) "cut off" true (d.(2) = infinity)

let test_dijkstra_matches_bfs_unit_lengths () =
  let g = Gen.gnm (Prng.create 4) ~n:60 ~m:150 in
  let d = Spath.dijkstra g ~length:(fun _ -> 1.0) 0 in
  let bfs = Metrics.bfs_distances g 0 in
  Array.iteri
    (fun v hops ->
      if hops < 0 then Alcotest.(check bool) "both unreachable" true (d.(v) = infinity)
      else feq "hop count" (float_of_int hops) d.(v))
    bfs

let test_stretch_identity_subgraph () =
  let g = Gen.gnm (Prng.create 5) ~n:40 ~m:120 in
  let samples = [ (0, 1); (2, 3); (4, 5) ] in
  let xs =
    Spath.path_stretch g ~length:(fun _ -> 1.0) ~subgraph:(fun _ -> true) ~samples
  in
  List.iter (fun x -> feq "stretch 1 on full subgraph" 1.0 x) xs

let test_stretch_disconnected_subgraph () =
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2) ] in
  let xs =
    Spath.path_stretch g ~length:(fun _ -> 1.0) ~subgraph:(fun e -> e = 0)
      ~samples:[ (0, 2) ]
  in
  Alcotest.(check bool) "infinite stretch" true (List.hd xs = infinity)

let suite =
  [
    Alcotest.test_case "path distances" `Quick test_path_distances;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "shortcut beats long edge" `Quick test_shortcut_beats_long_edge;
    Alcotest.test_case "negative length rejected" `Quick test_negative_length_rejected;
    Alcotest.test_case "restricted" `Quick test_restricted;
    Alcotest.test_case "dijkstra = bfs on unit lengths" `Quick test_dijkstra_matches_bfs_unit_lengths;
    Alcotest.test_case "stretch identity" `Quick test_stretch_identity_subgraph;
    Alcotest.test_case "stretch disconnected" `Quick test_stretch_disconnected_subgraph;
  ]
