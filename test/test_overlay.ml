module Overlay = Owp_overlay.Overlay
module Quality = Owp_overlay.Quality
module Pipeline = Owp_core.Pipeline
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let test_homogeneous_build () =
  let g = Gen.gnm (Prng.create 1) ~n:80 ~m:300 in
  let cfg = Overlay.homogeneous ~quota:3 (Metric.uniform ~seed:4) in
  let out = Overlay.build ~seed:2 g cfg in
  Alcotest.(check bool) "some satisfaction" true (out.Pipeline.total_satisfaction > 0.0);
  Alcotest.(check bool) "mean in [0,1]" true
    (out.Pipeline.mean_satisfaction >= 0.0 && out.Pipeline.mean_satisfaction <= 1.0);
  Alcotest.(check bool) "guarantee present for LID" true (out.Pipeline.guarantee <> None);
  Alcotest.(check bool) "messages counted" true (out.Pipeline.messages <> None)

let test_heterogeneous_metrics () =
  let g = Gen.gnm (Prng.create 5) ~n:60 ~m:200 in
  let metrics =
    [| Metric.uniform ~seed:1; Metric.bandwidth ~seed:2; Metric.transaction_history ~seed:3 |]
  in
  let cfg = Overlay.heterogeneous ~quota:2 metrics ~pick:(fun i -> i mod 3) in
  let prefs = Overlay.preferences g cfg in
  (* node 0 uses uniform(seed 1), node 1 uses bandwidth(seed 2): their
     rankings must match the respective metrics *)
  let check_node i metric =
    let list = Preference.list prefs i in
    for k = 0 to Array.length list - 2 do
      let a = Metric.score metric i list.(k) and b = Metric.score metric i list.(k + 1) in
      Alcotest.(check bool) "descending by own metric" true (a >= b)
    done
  in
  check_node 0 metrics.(0);
  check_node 1 metrics.(1);
  check_node 2 metrics.(2)

let test_heterogeneous_pick_validation () =
  let g = Gen.ring 6 in
  let cfg = Overlay.heterogeneous ~quota:1 [| Metric.uniform ~seed:1 |] ~pick:(fun _ -> 7) in
  Alcotest.(check bool) "bad pick raises" true
    (try
       ignore (Overlay.preferences g cfg);
       false
     with Invalid_argument _ -> true)

let test_build_with_algorithms () =
  let g = Gen.gnm (Prng.create 9) ~n:50 ~m:150 in
  let cfg = Overlay.homogeneous ~quota:2 (Metric.uniform ~seed:6) in
  let lid = Overlay.build_with ~engine:Pipeline.Lid g cfg in
  let lic = Overlay.build_with ~engine:Pipeline.Lic_indexed g cfg in
  Alcotest.(check bool) "lid = lic matching" true
    (BM.equal lid.Pipeline.matching lic.Pipeline.matching);
  Alcotest.(check (float 1e-9)) "lid = lic weight" lic.Pipeline.total_weight
    lid.Pipeline.total_weight;
  let dyn = Overlay.build_with ~engine:Pipeline.Dynamics g cfg in
  Alcotest.(check bool) "dynamics produced a matching" true (BM.size dyn.Pipeline.matching > 0)

let test_quality_bounds () =
  let g = Gen.gnm (Prng.create 11) ~n:70 ~m:250 in
  let prefs = Preference.random (Prng.create 12) g ~quota:(Preference.uniform_quota g 3) in
  let out =
    Pipeline.run_config
      (Owp_core.Run_config.make ~engine:Owp_core.Run_config.Lic_indexed ~seed:7 ())
      prefs
  in
  let q = Quality.measure prefs out.Pipeline.matching out.Pipeline.profile in
  Alcotest.(check bool) "mean in range" true (q.Quality.mean >= 0.0 && q.Quality.mean <= 1.0);
  Alcotest.(check bool) "jain in range" true (q.Quality.jain > 0.0 && q.Quality.jain <= 1.0 +. 1e-9);
  Alcotest.(check bool) "fractions in range" true
    (q.Quality.saturated_fraction >= 0.0 && q.Quality.saturated_fraction <= 1.0
    && q.Quality.fully_satisfied_fraction >= 0.0
    && q.Quality.fully_satisfied_fraction <= 1.0);
  Alcotest.(check bool) "ordering" true (q.Quality.p05 <= q.Quality.median)

let test_quality_perfect () =
  (* two nodes matched to each other: both fully satisfied *)
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let prefs = Preference.random (Prng.create 1) g ~quota:(Preference.uniform_quota g 1) in
  let m = Owp_matching.Bmatching.of_edge_ids g ~capacity:[| 1; 1 |] [ 0 ] in
  let q = Quality.measure prefs m (Pipeline.satisfaction_profile prefs m) in
  Alcotest.(check (float 1e-9)) "mean 1" 1.0 q.Quality.mean;
  Alcotest.(check (float 1e-9)) "jain 1" 1.0 q.Quality.jain;
  Alcotest.(check (float 1e-9)) "all saturated" 1.0 q.Quality.saturated_fraction

let test_quality_empty_graph () =
  let g = Graph.of_edge_list 3 [] in
  let prefs = Preference.random (Prng.create 1) g ~quota:(Preference.uniform_quota g 1) in
  let m = Owp_matching.Bmatching.empty g ~capacity:[| 0; 0; 0 |] in
  let q = Quality.measure prefs m (Pipeline.satisfaction_profile prefs m) in
  Alcotest.(check int) "no rated nodes" 0 q.Quality.nodes;
  Alcotest.(check (float 1e-9)) "zero total" 0.0 q.Quality.total

let suite =
  [
    Alcotest.test_case "homogeneous build" `Quick test_homogeneous_build;
    Alcotest.test_case "heterogeneous metrics" `Quick test_heterogeneous_metrics;
    Alcotest.test_case "pick validation" `Quick test_heterogeneous_pick_validation;
    Alcotest.test_case "build with algorithms" `Quick test_build_with_algorithms;
    Alcotest.test_case "quality bounds" `Quick test_quality_bounds;
    Alcotest.test_case "quality perfect" `Quick test_quality_perfect;
    Alcotest.test_case "quality empty graph" `Quick test_quality_empty_graph;
  ]
