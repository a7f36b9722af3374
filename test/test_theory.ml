module Theory = Owp_core.Theory
module Checker = Owp_check.Checker
module Lic = Owp_core.Lic
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let feq = Alcotest.(check (float 1e-9))

let test_bound_formulas () =
  feq "lemma1 b=1" 1.0 (Theory.lemma1_bound ~bmax:1);
  feq "lemma1 b=2" 0.75 (Theory.lemma1_bound ~bmax:2);
  feq "lemma1 b=4" 0.625 (Theory.lemma1_bound ~bmax:4);
  feq "theorem3 b=1" 0.5 (Theory.theorem3_bound ~bmax:1);
  feq "theorem3 b=2" 0.375 (Theory.theorem3_bound ~bmax:2);
  Alcotest.check_raises "bad bmax" (Invalid_argument "Theory.lemma1_bound: bmax must be positive")
    (fun () -> ignore (Theory.lemma1_bound ~bmax:0))

let test_weighted_blocking_pair_detects () =
  let g = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let w = Weights.of_array g [| 1.0; 5.0; 1.0 |] in
  (* matching the two light edges leaves the heavy middle edge blocking *)
  let bad = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  Alcotest.(check bool) "heavy unmatched edge blocks" false (Theory.is_greedy_stable w bad);
  Alcotest.(check bool) "the blocking pair is the middle edge" true
    (List.map
       (fun v -> v.Owp_check.Violation.subject)
       (Checker.violations
          (Checker.run ~only:[ "blocking-pair" ] (Checker.of_matching w bad)))
    = [ Owp_check.Violation.Edge (1, 2) ]);
  let good = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 1 ] in
  Alcotest.(check bool) "greedy choice is stable" true (Theory.is_greedy_stable w good)

let test_empty_matching_not_stable () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let empty = BM.empty g ~capacity:[| 1; 1 |] in
  Alcotest.(check bool) "free edge blocks" false (Theory.is_greedy_stable w empty);
  Alcotest.(check bool) "not maximal" false (BM.is_maximal empty)

let prop_lemma1_on_lic_matchings =
  QCheck2.Test.make ~name:"static/full ratio of LIC matchings >= lemma 1 bound" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:30 ~m:90 in
      let p = Preference.random rng g ~quota:(Preference.uniform_quota g 3) in
      let w = Weights.of_preference p in
      let m = Lic.run w ~capacity:(Array.init 30 (Preference.quota p)) in
      let conns = BM.connection_lists m in
      let s_full = Preference.total_satisfaction p conns in
      let ratio =
        if Float.equal s_full 0.0 then 1.0
        else Preference.total_static_satisfaction p conns /. s_full
      in
      ratio >= Theory.lemma1_bound ~bmax:(Preference.max_quota p) -. 1e-9)

let prop_certificate_on_lic =
  QCheck2.Test.make ~name:"LIC always carries the half-approx certificate" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:25 ~m:70 in
      let p = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
      let w = Weights.of_preference p in
      let m = Lic.run w ~capacity:(Array.init 25 (Preference.quota p)) in
      BM.is_maximal m && Theory.is_greedy_stable w m)

let suite =
  [
    Alcotest.test_case "bound formulas" `Quick test_bound_formulas;
    Alcotest.test_case "weighted blocking pair" `Quick test_weighted_blocking_pair_detects;
    Alcotest.test_case "empty matching unstable" `Quick test_empty_matching_not_stable;
    QCheck_alcotest.to_alcotest prop_lemma1_on_lic_matchings;
    QCheck_alcotest.to_alcotest prop_certificate_on_lic;
  ]
