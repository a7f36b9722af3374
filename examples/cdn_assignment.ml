(* CDN-style bipartite assignment: clients connect to edge servers.
   Clients rank servers by a private blend of proximity and server
   capacity; servers rank clients by transaction history (paying
   customers first).  Because the potential graph is bipartite, the
   exact optimum is computable at this scale by min-cost flow — so we
   can report LID's true approximation ratio, not just the bound.

   Run with:  dune exec examples/cdn_assignment.exe *)

module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let () =
  let rng = Prng.create 77 in
  let clients = 600 and servers = 40 in
  let n = clients + servers in
  (* a client can reach a random subset of servers *)
  let g = Gen.random_bipartite rng ~left:clients ~right:servers ~p:0.25 in

  (* coordinates for the proximity part of the client metric *)
  let pts = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let client_metric =
    Metric.combine "proximity+capacity"
      [ (0.7, Metric.latency pts); (0.3, Metric.bandwidth ~seed:5) ]
  in
  let server_metric = Metric.transaction_history ~seed:9 in
  let metric_of v = if v < clients then client_metric else server_metric in

  (* clients keep 2 mirrors; servers accept up to 25 clients *)
  let quota = Array.init n (fun v -> if v < clients then 2 else 25) in
  let prefs =
    Preference.of_scores g ~quota (fun i j -> Metric.score (metric_of i) i j)
  in
  let w = Weights.of_preference prefs in
  let capacity = Array.init n (Preference.quota prefs) in

  let lid = Owp_core.Stack.run ~seed:3 w ~capacity in
  let m = lid.Owp_core.Stack.matching in
  let opt = Owp_matching.Exact.max_weight_bipartite w ~capacity ~left:clients in

  Printf.printf "clients=%d servers=%d potential links=%d\n" clients servers
    (Graph.edge_count g);
  Printf.printf "LID assignments   : %d (messages %d, terminated %b)\n" (BM.size m)
    (lid.Owp_core.Stack.prop_count + lid.Owp_core.Stack.rej_count)
    lid.Owp_core.Stack.all_terminated;
  List.iter
    (fun v -> Printf.printf "  !! %s\n" (Owp_check.Violation.to_string v))
    lid.Owp_core.Stack.quiescence;
  Printf.printf "exact assignments : %d (min-cost flow)\n" (BM.size opt);
  Printf.printf "weight ratio      : %.4f (proven floor 0.5)\n"
    (BM.weight m w /. BM.weight opt w);
  let total m =
    Array.fold_left ( +. ) 0.0 (Owp_core.Pipeline.satisfaction_profile prefs m)
  in
  let s_lid = total m and s_opt = total opt in
  Printf.printf "satisfaction      : LID %.1f vs weight-OPT %.1f (ratio %.4f)\n" s_lid
    s_opt (s_lid /. s_opt);

  (* per-side view *)
  let side_mean lo hi =
    let acc = ref 0.0 and cnt = ref 0 in
    for v = lo to hi - 1 do
      if Preference.list_len prefs v > 0 then begin
        incr cnt;
        acc := !acc +. BM.satisfaction prefs m v
      end
    done;
    !acc /. float_of_int !cnt
  in
  Printf.printf "mean satisfaction : clients %.4f | servers %.4f\n" (side_mean 0 clients)
    (side_mean clients n);
  let unserved = ref 0 in
  for c = 0 to clients - 1 do
    if BM.connections m c = [] && Preference.list_len prefs c > 0 then incr unserved
  done;
  Printf.printf "unserved clients  : %d\n" !unserved
