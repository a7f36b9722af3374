let test_roundtrip () =
  let g = Gen.gnm (Owp_util.Prng.create 5) ~n:30 ~m:60 in
  let g2 = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g2);
  Alcotest.(check int) "edges" (Graph.edge_count g) (Graph.edge_count g2);
  Graph.iter_edges g (fun _ u v ->
      Alcotest.(check bool) "edge present" true (Graph.mem_edge g2 u v))

let test_comments_and_blanks () =
  let s = "# a comment\n3 2\n\n0 1\n# another\n1 2\n" in
  let g = Graph_io.of_string s in
  Alcotest.(check int) "edges" 2 (Graph.edge_count g)

let test_malformed () =
  Alcotest.(check bool) "empty fails" true
    (try
       ignore (Graph_io.of_string "");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "bad header fails" true
    (try
       ignore (Graph_io.of_string "nope\n");
       false
     with Failure _ | Invalid_argument _ -> true);
  Alcotest.(check bool) "count mismatch fails" true
    (try
       ignore (Graph_io.of_string "3 5\n0 1\n");
       false
     with Failure _ -> true)

let test_file_roundtrip () =
  let g = Gen.ring 12 in
  let path = Filename.temp_file "owp_test" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write path g;
      let g2 = Graph_io.read path in
      Alcotest.(check int) "edges" 12 (Graph.edge_count g2))

let test_weights_roundtrip () =
  let g = Gen.gnm (Owp_util.Prng.create 9) ~n:15 ~m:30 in
  let w = Array.init 30 (fun i -> float_of_int i /. 7.0) in
  let g2, w2 = Graph_io.weights_of_string (Graph_io.weights_to_string g w) in
  Alcotest.(check int) "edges" 30 (Graph.edge_count g2);
  Graph.iter_edges g (fun eid u v ->
      match Graph.find_edge g2 u v with
      | Some eid2 -> Alcotest.(check (float 1e-12)) "weight kept" w.(eid) w2.(eid2)
      | None -> Alcotest.fail "edge lost")

let test_weights_arity () =
  let g = Gen.ring 4 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Graph_io.weights_to_string: weight arity mismatch") (fun () ->
      ignore (Graph_io.weights_to_string g [| 1.0 |]))

let test_matching_roundtrip () =
  let g = Gen.gnm (Owp_util.Prng.create 7) ~n:20 ~m:40 in
  let ids = [ 0; 3; 17; 39 ] in
  Alcotest.(check (result (list int) string))
    "edge ids back, in order" (Ok ids)
    (Graph_io.matching_of_string g (Graph_io.matching_to_string g ids))

let test_matching_errors () =
  let g = Gen.ring 4 in
  let read s = Graph_io.matching_of_string g s in
  let err = Alcotest.(result (list int) string) in
  Alcotest.check err "bad token" (Error "line 2: `y' is not a node id")
    (read "# m\n0 y\n");
  Alcotest.check err "wrong arity" (Error "line 3: expected two node ids, found 3")
    (read "0 1\n\n1 2 3\n");
  Alcotest.check err "non-edge" (Error "line 1: 0-2 is not an edge of the graph")
    (read "0 2\n");
  Alcotest.check err "out of range"
    (Error "line 1: node 9 out of range (4 nodes)") (read "9 0\n")

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "malformed" `Quick test_malformed;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "weights roundtrip" `Quick test_weights_roundtrip;
    Alcotest.test_case "weights arity" `Quick test_weights_arity;
    Alcotest.test_case "matching roundtrip" `Quick test_matching_roundtrip;
    Alcotest.test_case "matching errors" `Quick test_matching_errors;
  ]
