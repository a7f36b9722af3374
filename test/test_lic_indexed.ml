module Lic = Owp_core.Lic
module Lic_indexed = Owp_core.Lic_indexed
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng
module Checker = Owp_check.Checker

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

let test_path_example () =
  let g = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let w = Weights.of_array g [| 4.0; 5.0; 4.0 |] in
  let m = Lic_indexed.run w ~capacity:[| 1; 1; 1; 1 |] in
  Alcotest.(check (list int)) "locally heaviest first" [ 1 ] (BM.edge_ids m)

let test_zero_capacity_nodes () =
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2) ] in
  let w = Weights.of_array g [| 1.0; 2.0 |] in
  let m = Lic_indexed.run w ~capacity:[| 0; 1; 1 |] in
  Alcotest.(check (list int)) "skips capacity-0 node" [ 1 ] (BM.edge_ids m)

let test_empty_graph () =
  let g = Graph.of_edge_list 3 [] in
  let w = Weights.of_array g [||] in
  let m = Lic_indexed.run w ~capacity:[| 1; 1; 1 |] in
  Alcotest.(check int) "empty" 0 (BM.size m)

let test_checkers_pass () =
  let _, _, w, capacity = random_instance 11 80 8 3 in
  let m = Lic_indexed.run w ~capacity in
  Alcotest.(check bool) "structural checkers pass" true
    (Checker.ok
       (Checker.run
          ~only:[ "edge-validity"; "quota"; "blocking-pair"; "maximality" ]
          (Checker.of_matching w m)));
  Alcotest.(check bool) "non-empty" true (BM.size m > 0)

(* the tentpole property: the index engine is an implementation of the
   same selection rule, so it must lock the exact same edge set as the
   reference rescanning engine (and, via Lemma 6, the sorted one) *)
let prop_matches_reference =
  QCheck2.Test.make ~name:"indexed = reference edge set (Lemma 6)" ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 40 8 3 in
      let indexed = Lic_indexed.run w ~capacity in
      BM.equal indexed (Lic.run ~strategy:Lic.Climbing w ~capacity)
      && BM.equal indexed (Lic.run ~strategy:Lic.Heaviest_first w ~capacity))

(* same property in the regime the engine exists for: heterogeneous
   quotas, some of them zero, denser neighbourhoods *)
let prop_matches_reference_heterogeneous =
  QCheck2.Test.make ~name:"indexed = reference under mixed quotas" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 30 in
      let g = Gen.gnm rng ~n ~m:120 in
      let w =
        Weights.of_array g
          (Array.init (Graph.edge_count g) (fun _ -> Prng.float rng 1.0))
      in
      let capacity = Array.init n (fun _ -> Prng.int rng 4) in
      BM.equal (Lic_indexed.run w ~capacity) (Lic.run ~strategy:Lic.Climbing w ~capacity))

let prop_deterministic =
  QCheck2.Test.make ~name:"indexed engine deterministic" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 30 6 2 in
      BM.equal (Lic_indexed.run w ~capacity) (Lic_indexed.run w ~capacity))

let suite =
  [
    Alcotest.test_case "path example" `Quick test_path_example;
    Alcotest.test_case "zero capacity nodes" `Quick test_zero_capacity_nodes;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "checkers pass" `Quick test_checkers_pass;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference_heterogeneous;
    QCheck_alcotest.to_alcotest prop_deterministic;
  ]
