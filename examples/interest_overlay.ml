(* Interest-based overlay with *heterogeneous private metrics* — the
   paper's headline scenario (§1): each peer individually chooses what
   "best neighbour" means (shared interests, transaction history, plain
   proximity) and never reveals the metric.  LID still coordinates them
   to a collectively guaranteed matching.

   Run with:  dune exec examples/interest_overlay.exe *)

let () =
  let rng = Owp_util.Prng.create 99 in
  let n = 400 in
  let g = Gen.barabasi_albert rng ~n ~m:5 in

  (* three metric "personalities" spread across the swarm *)
  let metrics =
    [|
      Metric.interest ~seed:11 ~dims:16; (* content interests *)
      Metric.transaction_history ~seed:22; (* past behaviour *)
      Metric.bandwidth ~seed:33; (* raw capacity *)
    |]
  in
  let personality i = i mod 3 in
  let config = Owp_overlay.Overlay.heterogeneous ~quota:4 metrics ~pick:personality in

  let prefs = Owp_overlay.Overlay.preferences g config in
  let outcome = Owp_overlay.Overlay.build ~seed:4 g config in
  let m = outcome.Owp_core.Pipeline.matching in

  Printf.printf "scale-free overlay: %d peers, %d potential links\n" n
    (Graph.edge_count g);
  Printf.printf "global mean satisfaction: %.4f\n\n"
    outcome.Owp_core.Pipeline.mean_satisfaction;

  (* per-personality quality: nobody is starved by using a different
     metric from the neighbours *)
  Printf.printf "%-22s %8s %10s %10s\n" "metric class" "peers" "mean S" "min S";
  Array.iteri
    (fun k metric ->
      let sats = ref [] in
      for v = 0 to n - 1 do
        if personality v = k && Preference.list_len prefs v > 0 then
          sats := Owp_matching.Bmatching.satisfaction prefs m v :: !sats
      done;
      let arr = Array.of_list !sats in
      let s = Owp_util.Stats.summarize arr in
      Printf.printf "%-22s %8d %10.4f %10.4f\n" (Metric.name metric) (Array.length arr)
        s.Owp_util.Stats.mean s.Owp_util.Stats.min)
    metrics;

  (* preference systems mixing metrics are generally cyclic: the very
     case where stable-fixtures dynamics may never converge but LID is
     guaranteed to terminate (Lemma 5) *)
  let sub = 120 in
  let sub_nodes = Array.init sub Fun.id in
  let sub_g, _ = Graph.induced_subgraph g sub_nodes in
  let sub_cfg = Owp_overlay.Overlay.heterogeneous ~quota:4 metrics ~pick:personality in
  let sub_prefs = Owp_overlay.Overlay.preferences sub_g sub_cfg in
  Printf.printf "\npreference system acyclic (first %d peers): %b\n" sub
    (Preference.is_acyclic sub_prefs);
  Printf.printf "LID terminated anyway: %b (Lemma 5 holds on cyclic systems)\n"
    (outcome.Owp_core.Pipeline.messages <> None)
