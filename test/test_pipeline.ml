module Pipeline = Owp_core.Pipeline
module Theory = Owp_core.Theory
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let instance seed =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n:60 ~m:200 in
  Preference.random rng g ~quota:(Preference.uniform_quota g 3)

(* seed 7 was the removed wrapper's default; the expectations below
   were calibrated against it *)
let run ?(seed = 7) engine prefs =
  Pipeline.run_config (Owp_core.Run_config.make ~engine ~seed ()) prefs

let test_lid_outcome_fields () =
  let prefs = instance 1 in
  let out = run Pipeline.Lid prefs in
  Alcotest.(check bool) "messages present" true (out.Pipeline.messages <> None);
  (match out.Pipeline.guarantee with
  | Some gbound ->
      Alcotest.(check (float 1e-9)) "theorem 3 bound"
        (Theory.theorem3_bound ~bmax:(Preference.max_quota prefs))
        gbound
  | None -> Alcotest.fail "LID carries a guarantee");
  Alcotest.(check bool) "weight consistent" true
    (Float.abs
       (out.Pipeline.total_weight
       -. BM.weight out.Pipeline.matching (Pipeline.weights prefs))
    < 1e-9)

let test_algorithms_consistent () =
  let prefs = instance 2 in
  let lid = run Pipeline.Lid prefs in
  let lic = run Pipeline.Lic_indexed prefs in
  Alcotest.(check bool) "same matching" true
    (BM.equal lid.Pipeline.matching lic.Pipeline.matching);
  Alcotest.(check (float 1e-9)) "same satisfaction" lic.Pipeline.total_satisfaction
    lid.Pipeline.total_satisfaction;
  Alcotest.(check bool) "dynamics has no guarantee field" true
    ((run Pipeline.Dynamics prefs).Pipeline.guarantee = None)

(* Lemma 6: the lic engine, the genuinely local climbing rule and the
   global greedy OPT comparator of Theorem 2 lock one edge set, and the
   engine carries Theorem 3's guarantee *)
let test_one_lic () =
  List.iter
    (fun seed ->
      let prefs = instance seed in
      let w = Pipeline.weights prefs in
      let n = Graph.node_count (Preference.graph prefs) in
      let capacity = Array.init n (Preference.quota prefs) in
      let out = run Pipeline.Lic_indexed prefs in
      Alcotest.(check bool) "lic = Climbing" true
        (BM.equal out.Pipeline.matching
           (Owp_core.Lic.run ~strategy:Owp_core.Lic.Climbing w ~capacity));
      Alcotest.(check bool) "lic = Greedy.run" true
        (BM.equal out.Pipeline.matching (Owp_matching.Greedy.run w ~capacity));
      Alcotest.(check bool) "Theorem 3 guarantee" true
        (out.Pipeline.guarantee
        = Some (Theory.theorem3_bound ~bmax:(Preference.max_quota prefs))))
    [ 1; 2; 3 ]

let test_profile_matches_total () =
  let prefs = instance 3 in
  let out = run Pipeline.Lic_indexed prefs in
  let profile = Pipeline.satisfaction_profile prefs out.Pipeline.matching in
  let total = Array.fold_left ( +. ) 0.0 profile in
  Alcotest.(check (float 1e-6)) "profile sums to total" out.Pipeline.total_satisfaction total

let test_satisfaction_vs_guarantee () =
  (* the realised satisfaction ratio vs the satisfaction-greedy upper
     bound proxy is far above the proven floor; sanity-check mean *)
  let prefs = instance 4 in
  let out = run Pipeline.Lid prefs in
  Alcotest.(check bool) "mean in [0,1]" true
    (out.Pipeline.mean_satisfaction >= 0.0 && out.Pipeline.mean_satisfaction <= 1.0)

(* n = 0, n = 1 and all quotas 0, through Workloads.of_graph: every
   engine returns an outcome with an empty matching, never an exception *)
let test_degenerate_instances () =
  let module W = Owp_bench.Workloads in
  List.iter
    (fun (label, g, quota) ->
      let inst = W.of_graph ~seed:3 ~pref_model:W.Random_prefs ~quota ~label g in
      List.iter
        (fun engine ->
          let cfg = Owp_core.Run_config.make ~engine ~seed:1 ~check:true () in
          let out = Pipeline.run_config cfg inst.W.prefs in
          Alcotest.(check (list int)) (label ^ ": empty matching") []
            (BM.edge_ids out.Pipeline.matching);
          Alcotest.(check (list string)) (label ^ ": no failures") [] out.Pipeline.failures)
        [ Pipeline.Lic_indexed; Pipeline.Lid; Pipeline.Lid_reliable; Pipeline.Dynamics ])
    [
      ("n = 0", Graph.of_edge_list 0 [], 2);
      ("n = 1", Graph.of_edge_list 1 [], 2);
      ("all quotas 0", Gen.gnm (Prng.create 5) ~n:30 ~m:60, 0);
    ]

let suite =
  [
    Alcotest.test_case "lid outcome fields" `Quick test_lid_outcome_fields;
    Alcotest.test_case "algorithms consistent" `Quick test_algorithms_consistent;
    Alcotest.test_case "lic engine is the one LIC" `Quick test_one_lic;
    Alcotest.test_case "profile matches total" `Quick test_profile_matches_total;
    Alcotest.test_case "satisfaction vs guarantee" `Quick test_satisfaction_vs_guarantee;
    Alcotest.test_case "degenerate instances" `Quick test_degenerate_instances;
  ]
