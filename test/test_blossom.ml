module Blossom = Owp_matching.Blossom
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let matching_number g = BM.size (Blossom.maximum_matching g)

(* exponential-time reference for small graphs *)
let brute_force_matching_number g =
  let n = Graph.node_count g and m = Graph.edge_count g in
  let used = Array.make n false in
  let rec go k =
    if k = m then 0
    else begin
      let u, v = Graph.edge_endpoints g k in
      let skip = go (k + 1) in
      if (not used.(u)) && not used.(v) then begin
        used.(u) <- true;
        used.(v) <- true;
        let take = 1 + go (k + 1) in
        used.(u) <- false;
        used.(v) <- false;
        max skip take
      end
      else skip
    end
  in
  go 0

let test_known_graphs () =
  Alcotest.(check int) "C5" 2 (matching_number (Gen.ring 5));
  Alcotest.(check int) "C6" 3 (matching_number (Gen.ring 6));
  Alcotest.(check int) "K4" 2 (matching_number (Gen.complete 4));
  Alcotest.(check int) "K5" 2 (matching_number (Gen.complete 5));
  Alcotest.(check int) "star" 1 (matching_number (Gen.star 7));
  Alcotest.(check int) "path8" 4 (matching_number (Gen.path 8));
  Alcotest.(check int) "empty" 0 (matching_number (Graph.of_edge_list 4 []))

let test_petersen () =
  let petersen =
    Graph.of_edge_list 10
      [
        (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
        (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
        (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
      ]
  in
  Alcotest.(check int) "perfect matching" 5 (matching_number petersen)

let test_two_triangles_bridge () =
  (* two triangles joined by a bridge: needs blossom shrinking *)
  let g = Graph.of_edge_list 6 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5); (3, 5) ] in
  Alcotest.(check int) "three pairs" 3 (matching_number g)

let test_output_is_valid_matching () =
  let g = Gen.gnm (Prng.create 8) ~n:60 ~m:180 in
  let m = Blossom.maximum_matching g in
  for v = 0 to 59 do
    Alcotest.(check bool) "unit degree" true (BM.degree m v <= 1)
  done

let prop_matches_brute_force =
  QCheck2.Test.make ~name:"blossom = brute force on small graphs" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 7 in
      let g = Gen.gnp rng ~n ~p:0.35 in
      Graph.edge_count g > 22
      || matching_number g = brute_force_matching_number g)

let prop_at_least_greedy =
  QCheck2.Test.make ~name:"maximum >= any maximal matching" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:30 ~m:80 in
      let w = Weights.of_array g (Array.init 80 (fun _ -> Prng.float rng 1.0)) in
      let greedy = Owp_matching.Onetoone.global_greedy w in
      matching_number g >= BM.size greedy)

let suite =
  [
    Alcotest.test_case "known graphs" `Quick test_known_graphs;
    Alcotest.test_case "petersen" `Quick test_petersen;
    Alcotest.test_case "two triangles + bridge" `Quick test_two_triangles_bridge;
    Alcotest.test_case "valid matching" `Quick test_output_is_valid_matching;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_at_least_greedy;
  ]
