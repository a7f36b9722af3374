(* Tests for the extension modules: Improve (local search), Hoepman,
   Lid_dynamic, the robust stack configuration and Fixtures_phase1. *)

module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng
module Improve = Owp_core.Improve
module Hoepman = Owp_core.Hoepman
module Churn = Owp_core.Churn
module Dyn = Owp_core.Lid_dynamic
module P1 = Owp_stable.Fixtures_phase1

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(n * avg_deg / 2) in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  (g, p, Weights.of_preference p, Array.init n (Preference.quota p))

let total p m = Preference.total_satisfaction p (BM.connection_lists m)

(* ---------- Improve ---------- *)

let prop_local_search_never_worse =
  QCheck2.Test.make ~name:"local search never decreases satisfaction" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, p, w, cap = random_instance seed 25 6 2 in
      let m = Owp_core.Lic.run w ~capacity:cap in
      let m', _ = Improve.local_search p m in
      total p m' >= total p m -. 1e-9)

let prop_local_search_feasible =
  QCheck2.Test.make ~name:"local search preserves feasibility" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, p, w, cap = random_instance seed 25 6 2 in
      let m = Owp_core.Lic.run w ~capacity:cap in
      let m', _ = Improve.local_search p m in
      let ok = ref true in
      Array.iteri (fun v b -> if BM.degree m' v > b then ok := false) cap;
      !ok)

let test_local_search_fixes_bad_matching () =
  (* path 0-1-2-3 where the middle edge is a poor satisfaction choice:
     quota 1, matching {1-2} leaves 0 and 3 alone; swap moves should
     reach {0-1, 2-3} *)
  let g = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let lists = [| [| 1 |]; [| 0; 2 |]; [| 3; 1 |]; [| 2 |] |] in
  let p = Preference.create g ~quota:[| 1; 1; 1; 1 |] ~lists in
  let bad = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 1 ] in
  let improved, moves = Improve.local_search p bad in
  Alcotest.(check bool) "moved" true (moves > 0);
  Alcotest.(check (float 1e-9)) "optimal now" 4.0 (total p improved)

let test_move_gain_on_matched_edge_is_zero () =
  let _, p, w, cap = random_instance 3 15 4 2 in
  let m = Owp_core.Lic.run w ~capacity:cap in
  List.iter
    (fun eid -> Alcotest.(check (float 1e-12)) "matched gain" 0.0 (Improve.move_gain p m eid))
    (BM.edge_ids m)

(* ---------- Hoepman ---------- *)

let prop_hoepman_equals_lic_b1 =
  QCheck2.Test.make ~name:"Hoepman edge set = LIC at b = 1" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, _, w, _ = random_instance seed 30 6 1 in
      let r = Hoepman.run ~seed:(seed + 5) w in
      let lic = Owp_core.Lic.run w ~capacity:(Array.make (Graph.node_count g) 1) in
      r.Hoepman.all_terminated && BM.equal r.Hoepman.matching lic)

let test_hoepman_two_nodes () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let r = Hoepman.run w in
  Alcotest.(check int) "matched" 1 (BM.size r.Hoepman.matching);
  Alcotest.(check int) "two requests" 2 r.Hoepman.req_count;
  Alcotest.(check bool) "no drops needed" true (r.Hoepman.drop_count = 0)

let test_hoepman_empty () =
  let g = Graph.of_edge_list 3 [] in
  let w = Weights.of_array g [||] in
  let r = Hoepman.run w in
  Alcotest.(check bool) "terminates" true r.Hoepman.all_terminated;
  Alcotest.(check int) "no messages" 0 (r.Hoepman.req_count + r.Hoepman.drop_count)

(* ---------- Lid_dynamic ---------- *)

let test_dynamic_bootstrap_only () =
  let _, p, _, _ = random_instance 7 30 6 2 in
  let active = Array.make 30 true in
  let r = Dyn.run ~prefs:p ~initially_active:active ~events:[] () in
  Alcotest.(check bool) "quiescent" true r.Dyn.quiescent;
  Alcotest.(check bool) "built something" true (BM.size r.Dyn.final_matching > 0);
  Alcotest.(check bool) "maximal" true (BM.is_maximal r.Dyn.final_matching)

let test_dynamic_leave_then_rejoin () =
  let _, p, _, _ = random_instance 8 25 6 2 in
  let active = Array.make 25 true in
  let r =
    Dyn.run ~prefs:p ~initially_active:active ~events:[ Churn.Leave 0; Churn.Join 0 ] ()
  in
  Alcotest.(check int) "two steps" 2 (List.length r.Dyn.steps);
  Alcotest.(check bool) "quiescent" true r.Dyn.quiescent;
  let s1 = List.nth r.Dyn.steps 0 and s2 = List.nth r.Dyn.steps 1 in
  Alcotest.(check int) "one fewer active" 24 s1.Dyn.active_nodes;
  Alcotest.(check int) "back to full" 25 s2.Dyn.active_nodes;
  Alcotest.(check bool) "satisfaction recovers" true
    (s2.Dyn.total_satisfaction >= s1.Dyn.total_satisfaction -. 1e-9)

let test_dynamic_respects_quotas () =
  let _, p, _, cap = random_instance 9 30 8 3 in
  let rngev = Prng.create 10 in
  let active = Array.init 30 (fun _ -> Prng.bernoulli rngev 0.8) in
  let g = Preference.graph p in
  let events = Churn.random_events rngev ~universe:g ~initially_active:active ~steps:20 in
  let r = Dyn.run ~prefs:p ~initially_active:active ~events () in
  Array.iteri
    (fun v b -> Alcotest.(check bool) "quota" true (BM.degree r.Dyn.final_matching v <= b))
    cap;
  Alcotest.(check bool) "quiescent" true r.Dyn.quiescent

let test_dynamic_event_validation () =
  let _, p, _, _ = random_instance 11 10 4 1 in
  let active = Array.make 10 true in
  Alcotest.(check bool) "joining active raises" true
    (try
       ignore (Dyn.run ~prefs:p ~initially_active:active ~events:[ Churn.Join 0 ] ());
       false
     with Invalid_argument _ -> true)

(* ---------- robust configuration (silent peers + patience) ---------- *)

let test_robust_no_faults_equals_lid () =
  let _, _, w, cap = random_instance 12 25 6 2 in
  let silent = Array.make 25 false in
  let r = Owp_core.Stack.run ~seed:0x50B ~patience:10.0 ~silent w ~capacity:cap in
  let lid = Owp_core.Stack.run w ~capacity:cap in
  Alcotest.(check bool) "terminated" true r.Owp_core.Stack.all_terminated;
  Alcotest.(check int) "no timeouts" 0
    (Owp_core.Stack.counter r ~layer:"detector" "patience-fired");
  Alcotest.(check bool) "same matching as plain LID" true
    (BM.equal r.Owp_core.Stack.matching lid.Owp_core.Stack.matching)

let test_robust_all_silent () =
  let _, _, w, cap = random_instance 13 15 4 2 in
  let silent = Array.make 15 true in
  let r = Owp_core.Stack.run ~seed:0x50B ~patience:10.0 ~silent w ~capacity:cap in
  Alcotest.(check int) "nothing matched" 0 (BM.size r.Owp_core.Stack.matching);
  Alcotest.(check bool) "vacuously terminated" true r.Owp_core.Stack.all_terminated

let prop_robust_terminates_under_silence =
  QCheck2.Test.make ~name:"robust LID always terminates for correct nodes" ~count:30
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 60))
    (fun (seed, pct) ->
      let _, _, w, cap = random_instance seed 25 6 2 in
      let rng = Prng.create (seed + 1) in
      let silent =
        Array.init 25 (fun _ -> Prng.bernoulli rng (float_of_int pct /. 100.0))
      in
      let r = Owp_core.Stack.run ~seed:0x50B ~patience:10.0 ~silent w ~capacity:cap in
      r.Owp_core.Stack.all_terminated
      &&
      (* no silent node ends up in the matching *)
      List.for_all
        (fun eid ->
          let u, v = Graph.edge_endpoints (BM.graph r.Owp_core.Stack.matching) eid in
          (not silent.(u)) && not silent.(v))
        (BM.edge_ids r.Owp_core.Stack.matching))

(* ---------- Fixtures_phase1 ---------- *)

let test_phase1_feasible_and_warm () =
  let _, p, _, cap = random_instance 14 30 6 3 in
  let mm = P1.warm_start p in
  Array.iteri (fun v b -> Alcotest.(check bool) "quota" true (BM.degree mm v <= b)) cap;
  let warm = P1.warm_solve ~max_rounds:20000 p in
  let cold = Owp_stable.Fixtures.solve ~max_rounds:20000 p in
  (* warm start can only reduce the number of rounds needed *)
  Alcotest.(check bool) "warm uses fewer-or-equal rounds" true
    (warm.Owp_stable.Fixtures.rounds <= cold.Owp_stable.Fixtures.rounds
    || warm.Owp_stable.Fixtures.stable)

let test_phase1_respects_acyclic_stability () =
  let g = Gen.gnm (Prng.create 15) ~n:40 ~m:120 in
  let p =
    Preference.of_metric g ~quota:(Preference.uniform_quota g 2) (Metric.bandwidth ~seed:3)
  in
  let warm = P1.warm_solve p in
  Alcotest.(check bool) "stable on acyclic" true warm.Owp_stable.Fixtures.stable;
  Alcotest.(check bool) "verified" true
    (Owp_stable.Blocking.is_stable p warm.Owp_stable.Fixtures.matching)

let test_phase1_unit_quota_matches_gs_shape () =
  (* bipartite unit case: mutual holds of phase 1 form a matching *)
  let g = Gen.random_bipartite (Prng.create 16) ~left:6 ~right:6 ~p:0.7 in
  let p = Preference.random (Prng.create 17) g ~quota:(Preference.uniform_quota g 1) in
  let mm = P1.warm_start p in
  for v = 0 to 11 do
    Alcotest.(check bool) "unit degree" true (BM.degree mm v <= 1)
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_local_search_never_worse;
    QCheck_alcotest.to_alcotest prop_local_search_feasible;
    Alcotest.test_case "local search fixes bad matching" `Quick test_local_search_fixes_bad_matching;
    Alcotest.test_case "move gain zero on matched" `Quick test_move_gain_on_matched_edge_is_zero;
    QCheck_alcotest.to_alcotest prop_hoepman_equals_lic_b1;
    Alcotest.test_case "hoepman two nodes" `Quick test_hoepman_two_nodes;
    Alcotest.test_case "hoepman empty" `Quick test_hoepman_empty;
    Alcotest.test_case "dynamic bootstrap only" `Quick test_dynamic_bootstrap_only;
    Alcotest.test_case "dynamic leave then rejoin" `Quick test_dynamic_leave_then_rejoin;
    Alcotest.test_case "dynamic respects quotas" `Quick test_dynamic_respects_quotas;
    Alcotest.test_case "dynamic event validation" `Quick test_dynamic_event_validation;
    Alcotest.test_case "robust no faults = LID" `Quick test_robust_no_faults_equals_lid;
    Alcotest.test_case "robust all silent" `Quick test_robust_all_silent;
    QCheck_alcotest.to_alcotest prop_robust_terminates_under_silence;
    Alcotest.test_case "phase1 feasible and warm" `Quick test_phase1_feasible_and_warm;
    Alcotest.test_case "phase1 acyclic stability" `Quick test_phase1_respects_acyclic_stability;
    Alcotest.test_case "phase1 unit quota" `Quick test_phase1_unit_quota_matches_gs_shape;
  ]
