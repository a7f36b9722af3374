(* Cross-cutting integration properties: behaviours that span several
   libraries (protocol + theory + exact solvers + overlay layer). *)

module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(n * avg_deg / 2) in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  (g, p, Weights.of_preference p, Array.init n (Preference.quota p))

(* ---------- structured-graph sanity for LID ---------- *)

let test_lid_torus_full_quota () =
  (* 4-regular torus with quota 4: every edge is selectable and the
     greedy-stable maximal matching is the whole edge set *)
  let g = Gen.torus ~width:5 ~height:5 in
  let p = Preference.random (Prng.create 1) g ~quota:(Preference.uniform_quota g 4) in
  let w = Weights.of_preference p in
  let r = Owp_core.Stack.run w ~capacity:(Array.make 25 4) in
  Alcotest.(check int) "all edges locked" (Graph.edge_count g)
    (BM.size r.Owp_core.Stack.matching);
  (* everyone connected to its entire neighbourhood: satisfaction 1 *)
  Alcotest.(check (float 1e-9)) "everyone fully satisfied" 25.0
    (Preference.total_satisfaction p (BM.connection_lists r.Owp_core.Stack.matching))

let test_lid_star_hub_quota () =
  let g = Gen.star 8 in
  let p = Preference.random (Prng.create 2) g ~quota:[| 7; 1; 1; 1; 1; 1; 1; 1 |] in
  let w = Weights.of_preference p in
  let r = Owp_core.Stack.run w ~capacity:[| 7; 1; 1; 1; 1; 1; 1; 1 |] in
  Alcotest.(check int) "hub takes everyone" 7 (BM.size r.Owp_core.Stack.matching)

let test_lid_complete_b1_equals_greedy () =
  let g = Gen.complete 12 in
  let p = Preference.random (Prng.create 3) g ~quota:(Preference.uniform_quota g 1) in
  let w = Weights.of_preference p in
  let capacity = Array.make 12 1 in
  let r = Owp_core.Stack.run w ~capacity in
  let greedy = Owp_matching.Greedy.run w ~capacity in
  Alcotest.(check bool) "lid = global greedy on K12" true
    (BM.equal r.Owp_core.Stack.matching greedy)

let prop_mutually_heaviest_always_locked =
  (* an edge that is the heaviest incident edge at BOTH endpoints is
     locally heaviest from the start, so every algorithm in the family
     must select it *)
  QCheck2.Test.make ~name:"mutually-heaviest edges are always locked" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, _, w, capacity = random_instance seed 30 6 2 in
      let heaviest_at v =
        let best = ref (-1) in
        Graph.iter_neighbors g v (fun _ e ->
            if !best < 0 || Weights.heavier w e !best then best := e);
        !best
      in
      let r = Owp_core.Stack.run w ~capacity in
      let ok = ref true in
      Graph.iter_edges g (fun eid u v ->
          if heaviest_at u = eid && heaviest_at v = eid then
            if not (BM.mem r.Owp_core.Stack.matching eid) then ok := false);
      !ok)

(* ---------- end-to-end guarantee across the whole stack ---------- *)

let prop_pipeline_end_to_end_guarantee =
  QCheck2.Test.make ~name:"pipeline outcome meets its own guarantee vs exact" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnp rng ~n:8 ~p:0.4 in
      if Graph.edge_count g > 18 then true
      else begin
        let p = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
        let out =
          Owp_core.Pipeline.run_config
            (Owp_core.Run_config.make ~engine:Owp_core.Run_config.Lid ~seed:7 ())
            p
        in
        let _, s_opt = Owp_matching.Exact.max_satisfaction_bmatching ~max_edges:18 p in
        match out.Owp_core.Pipeline.guarantee with
        | None -> false
        | Some bound ->
            s_opt = 0.0 || out.Owp_core.Pipeline.total_satisfaction >= (bound *. s_opt) -. 1e-9
      end)

(* ---------- GS proposer-optimality (brute force) ---------- *)

let all_stable_matchings prefs left right =
  (* enumerate injective proposer->reviewer assignments over edges and
     keep the stable ones; proposers/reviewers of a small bipartite
     preference system with unit capacities *)
  let g = Preference.graph prefs in
  let capacity = Array.make (Graph.node_count g) 1 in
  let results = ref [] in
  let chosen = ref [] in
  let used = Array.make (Graph.node_count g) false in
  let rec go p =
    if p = left then begin
      let ids = !chosen in
      let m = BM.of_edge_ids g ~capacity ids in
      if Owp_stable.Blocking.is_stable prefs m then results := m :: !results
    end
    else begin
      (* option: leave proposer p unmatched *)
      go (p + 1);
      Graph.iter_neighbors g p (fun v eid ->
          if (not used.(v)) && v >= left && v < left + right then begin
            used.(v) <- true;
            chosen := eid :: !chosen;
            go (p + 1);
            chosen := List.tl !chosen;
            used.(v) <- false
          end)
    end
  in
  go 0;
  !results

let test_gs_proposer_optimal () =
  for seed = 1 to 6 do
    let rng = Prng.create seed in
    let g = Gen.random_bipartite rng ~left:4 ~right:4 ~p:0.8 in
    let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 1) in
    let gs = Owp_stable.Gale_shapley.run prefs ~proposers:[| 0; 1; 2; 3 |] in
    let stables = all_stable_matchings prefs 4 4 in
    Alcotest.(check bool) "gs is stable" true (Owp_stable.Blocking.is_stable prefs gs);
    (* proposer-optimal: each proposer does at least as well in GS as in
       any other stable matching *)
    List.iter
      (fun other ->
        for p = 0 to 3 do
          match (BM.connections gs p, BM.connections other p) with
          | _, [] -> () (* unmatched elsewhere: GS can't be worse *)
          | [], _ :: _ ->
              (* rural-hospitals: matched sets coincide across stable
                 matchings, so GS cannot leave p unmatched *)
              Alcotest.fail "GS left a proposer unmatched who is matched elsewhere"
          | [ a ], [ b ] ->
              Alcotest.(check bool) "gs at least as good" true
                (Preference.rank prefs p a <= Preference.rank prefs p b)
          | _ -> Alcotest.fail "unit capacities violated"
        done)
      stables
  done

(* ---------- determinism across the stack ---------- *)

let test_lid_deterministic () =
  let _, _, w, capacity = random_instance 21 40 8 3 in
  let a = Owp_core.Stack.run ~seed:5 w ~capacity in
  let b = Owp_core.Stack.run ~seed:5 w ~capacity in
  Alcotest.(check bool) "same matching" true
    (BM.equal a.Owp_core.Stack.matching b.Owp_core.Stack.matching);
  Alcotest.(check int) "same props" a.Owp_core.Stack.prop_count b.Owp_core.Stack.prop_count;
  Alcotest.(check int) "same rejs" a.Owp_core.Stack.rej_count b.Owp_core.Stack.rej_count;
  Alcotest.(check (float 1e-12)) "same virtual time" a.Owp_core.Stack.completion_time
    b.Owp_core.Stack.completion_time

(* ---------- dynamic LID vs centralized churn agree on feasibility ---- *)

let test_dynamic_matches_active_subgraph_maximality () =
  let _, p, w, _ = random_instance 23 30 6 2 in
  let active = Array.init 30 (fun i -> i mod 5 <> 0) in
  let r = Owp_core.Lid_dynamic.run ~prefs:p ~initially_active:active ~events:[] () in
  let m = r.Owp_core.Lid_dynamic.final_matching in
  (* no free active edge: maximal within the active subgraph *)
  let g = Preference.graph p in
  Graph.iter_edges g (fun eid u v ->
      if
        active.(u) && active.(v)
        && (not (BM.mem m eid))
        && BM.residual m u > 0
        && BM.residual m v > 0
      then
        Alcotest.failf "free active edge %d-%d left unmatched (w=%.4f)" u v
          (Weights.weight w eid))

let suite =
  [
    Alcotest.test_case "lid torus full quota" `Quick test_lid_torus_full_quota;
    Alcotest.test_case "lid star hub quota" `Quick test_lid_star_hub_quota;
    Alcotest.test_case "lid complete b1 = greedy" `Quick test_lid_complete_b1_equals_greedy;
    QCheck_alcotest.to_alcotest prop_mutually_heaviest_always_locked;
    QCheck_alcotest.to_alcotest prop_pipeline_end_to_end_guarantee;
    Alcotest.test_case "GS proposer-optimal (brute force)" `Quick test_gs_proposer_optimal;
    Alcotest.test_case "lid deterministic" `Quick test_lid_deterministic;
    Alcotest.test_case "dynamic maximal on active subgraph" `Quick
      test_dynamic_matches_active_subgraph_maximality;
  ]
