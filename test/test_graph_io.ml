let parse s =
  match Graph_io.of_string s with
  | Ok g -> g
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let test_roundtrip () =
  let g = Gen.gnm (Owp_util.Prng.create 5) ~n:30 ~m:60 in
  let g2 = parse (Graph_io.to_string g) in
  Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g2);
  Alcotest.(check int) "edges" (Graph.edge_count g) (Graph.edge_count g2);
  Graph.iter_edges g (fun _ u v ->
      Alcotest.(check bool) "edge present" true (Graph.mem_edge g2 u v))

let test_comments_and_blanks () =
  let s = "# a comment\n3 2\n\n0 1\n# another\n1 2\n" in
  Alcotest.(check int) "edges" 2 (Graph.edge_count (parse s))

let error_of s =
  match Graph_io.of_string s with
  | Ok _ -> Alcotest.failf "%S parsed" s
  | Error e -> e

let test_malformed () =
  List.iter
    (fun (what, input, msg) -> Alcotest.(check string) what msg (error_of input))
    [
      ("empty", "", "empty input, expected a header `n m'");
      ("comments only", "# nothing\n\n", "empty input, expected a header `n m'");
      ("bad header", "nope\n", "line 1: header must be `n m', found 1 fields");
      ( "header without edge count",
        "3\n0 1",
        "line 1: header must be `n m', found 1 fields" );
      ("non-integer endpoint", "3 1\n0 x", "line 2: `x' is not a node id");
      ("non-integer header", "a b", "line 1: `a' is not a count");
      ("self-loop", "3 2\n0 1\n1 1", "line 3: self-loop at node 1");
      ("endpoint out of range", "3 2\n0 1\n0 5", "line 3: node 5 out of range (3 nodes)");
      ("negative endpoint", "3 2\n0 1\n1 -2", "line 3: `-2' is not a node id");
      ("duplicate edge", "3 2\n0 1\n0 1", "line 3: duplicate edge 0-1");
      ("reversed duplicate", "3 2\n0 1\n1 0", "line 3: duplicate edge 1-0");
      ("too few edge lines", "3 2\n0 1", "line 1: header announces 2 edges, found 1");
      ( "too many edge lines",
        "# c\n3 1\n0 1\n1 2",
        "line 2: header announces 1 edges, found 2" );
      ("one-field edge line", "3 1\n0", "line 2: expected two node ids, found 1");
      ( "huge header",
        "99999999999 0",
        "line 1: 99999999999 nodes exceed the limit of 16777216" );
      ( "overflowing count",
        "3 99999999999999999999",
        "line 1: `99999999999999999999' is not a count" );
    ]

(* ROADMAP item 7: the reader answers every input with a graph or an
   [Error], never an exception *)
let prop_never_raises =
  QCheck2.Test.make ~name:"of_string never raises on short strings" ~count:500
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ '0'; '1'; '2'; '3'; ' '; '\n'; '#'; '-'; 'x' ]) (0 -- 24))
    (fun s ->
      match Graph_io.of_string s with Ok _ | Error _ -> true)

let test_file_roundtrip () =
  let g = Gen.ring 12 in
  let path = Filename.temp_file "owp_test" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write path g;
      match Graph_io.read path with
      | Ok g2 -> Alcotest.(check int) "edges" 12 (Graph.edge_count g2)
      | Error e -> Alcotest.fail e)

let test_unreadable_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "owp-no-such-dir/g.edges" in
  Alcotest.(check bool) "missing file is an Error" true (Result.is_error (Graph_io.read path))

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
    QCheck_alcotest.to_alcotest prop_never_raises;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "unreadable file" `Quick test_unreadable_file;
    Alcotest.test_case "weights roundtrip" `Quick test_weights_roundtrip;
    Alcotest.test_case "weights arity" `Quick test_weights_arity;
    Alcotest.test_case "matching roundtrip" `Quick test_matching_roundtrip;
    Alcotest.test_case "matching errors" `Quick test_matching_errors;
  ]
