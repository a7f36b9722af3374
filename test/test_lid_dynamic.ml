(* Seeded property tests for the dynamic LID variant (§7 future work):
   after any churn trace the final matching must be capacity-feasible
   inside the surviving active subgraph, maximal on it, quiescent per
   event burst, and retain most of the satisfaction of a from-scratch
   static run on the same survivors.  Equality with the static edge set
   is deliberately NOT asserted — the dynamic variant trades the
   locally-heaviest property for responsiveness (see lid_dynamic.mli);
   the retention floor below is calibrated empirically across the
   seeded traces, not derived. *)

module Churn = Owp_core.Churn
module Dyn = Owp_core.Lid_dynamic
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(n * avg_deg / 2) in
  Preference.random rng g ~quota:(Preference.uniform_quota g quota)

(* a consistent churn trace (no double joins/leaves) plus the final
   active set it leaves behind *)
let churn_trace seed prefs =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  let rng = Prng.create (0xD11 + seed) in
  let initially_active = Array.init n (fun _ -> Prng.bernoulli rng 0.8) in
  let events = Churn.random_events rng ~universe:g ~initially_active ~steps:25 in
  let active = Array.copy initially_active in
  List.iter (Churn.apply active) events;
  (initially_active, events, active)

let satisfaction_of prefs active m =
  let sat = ref 0.0 in
  Array.iteri
    (fun v a -> if a then sat := !sat +. Preference.satisfaction prefs v (BM.connections m v))
    active;
  !sat

(* from-scratch static reference on the survivors: inactive nodes get
   capacity 0, exactly the masking E16 uses *)
let static_reference prefs active =
  satisfaction_of prefs active
    (Owp_core.Lic.run (Weights.of_preference prefs) ~capacity:(Churn.capacity prefs active))

let prop_churn_invariants =
  QCheck2.Test.make ~name:"dynamic LID: feasible, maximal, quiescent under churn"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prefs = instance seed 40 6 2 in
      let initially_active, events, active = churn_trace seed prefs in
      let r = Dyn.run ~prefs ~initially_active ~events () in
      let m = r.Dyn.final_matching in
      let g = Preference.graph prefs in
      let ok = ref r.Dyn.quiescent in
      (* capacity-feasible, and no locked link touches a departed peer *)
      Graph.iter_edges g (fun eid u v ->
          if BM.mem m eid && not (active.(u) && active.(v)) then ok := false);
      for v = 0 to Graph.node_count g - 1 do
        if List.length (BM.connections m v) > Preference.quota prefs v then ok := false
      done;
      (* maximal on the surviving subgraph *)
      Graph.iter_edges g (fun eid u v ->
          if
            active.(u) && active.(v)
            && (not (BM.mem m eid))
            && BM.residual m u > 0
            && BM.residual m v > 0
          then ok := false);
      !ok)

let prop_churn_retention =
  (* calibrated across the seeded traces below: the dynamic matching has
     always kept well above 80% of the from-scratch satisfaction; the
     floor is set at 0.70 to leave noise margin, not to flatter a
     regression *)
  QCheck2.Test.make ~name:"dynamic LID retains calibrated satisfaction vs from-scratch"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prefs = instance seed 40 6 2 in
      let initially_active, events, active = churn_trace seed prefs in
      let r = Dyn.run ~prefs ~initially_active ~events () in
      let dyn = satisfaction_of prefs active r.Dyn.final_matching in
      let reference = static_reference prefs active in
      Float.equal reference 0.0 || dyn /. reference >= 0.70)

let test_empty_trace_matches_bootstrap () =
  let prefs = instance 7 30 6 2 in
  let all = Array.make 30 true in
  let r = Dyn.run ~prefs ~initially_active:all ~events:[] () in
  Alcotest.(check bool) "quiescent" true r.Dyn.quiescent;
  Alcotest.(check (list string)) "no steps without events" []
    (List.map (fun _ -> "step") r.Dyn.steps);
  Alcotest.(check bool) "bootstrap produced links" true (BM.size r.Dyn.final_matching > 0)

let test_deterministic () =
  let prefs = instance 8 40 6 2 in
  let initially_active, events, _ = churn_trace 8 prefs in
  let a = Dyn.run ~seed:11 ~prefs ~initially_active ~events () in
  let b = Dyn.run ~seed:11 ~prefs ~initially_active ~events () in
  Alcotest.(check bool) "same final matching" true
    (BM.equal a.Dyn.final_matching b.Dyn.final_matching);
  Alcotest.(check int) "same message count" a.Dyn.total_messages b.Dyn.total_messages

let suite =
  [
    QCheck_alcotest.to_alcotest prop_churn_invariants;
    QCheck_alcotest.to_alcotest prop_churn_retention;
    Alcotest.test_case "empty trace bootstraps" `Quick test_empty_trace_matches_bootstrap;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
