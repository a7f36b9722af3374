(* Latency-driven overlay: peers live in a metric space (e.g. network
   coordinates) and prefer nearby neighbours.  Compares the LID overlay
   against a random maximal matching of the same degree budget: the
   satisfaction-maximising overlay picks dramatically shorter links.

   Run with:  dune exec examples/latency_overlay.exe *)

module BM = Owp_matching.Bmatching

let mean_link_distance pts m =
  let g = BM.graph m in
  let total = ref 0.0 and count = ref 0 in
  List.iter
    (fun eid ->
      let u, v = Graph.edge_endpoints g eid in
      let xu, yu = pts.(u) and xv, yv = pts.(v) in
      total := !total +. sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0));
      incr count)
    (BM.edge_ids m);
  if !count = 0 then 0.0 else !total /. float_of_int !count

let random_maximal rng g capacity =
  (* scan edges in random order, add whatever fits: the "no preferences"
     strawman *)
  let order = Owp_util.Prng.permutation rng (Graph.edge_count g) in
  let residual = Array.copy capacity in
  let chosen = ref [] in
  Array.iter
    (fun eid ->
      let u, v = Graph.edge_endpoints g eid in
      if residual.(u) > 0 && residual.(v) > 0 then begin
        residual.(u) <- residual.(u) - 1;
        residual.(v) <- residual.(v) - 1;
        chosen := eid :: !chosen
      end)
    order;
  BM.of_edge_ids g ~capacity !chosen

let () =
  let rng = Owp_util.Prng.create 7 in
  let n = 500 in
  let g, pts = Gen.random_geometric rng ~n ~radius:0.12 in
  Printf.printf "geometric overlay: %d peers, %d potential links, avg degree %.1f\n"
    n (Graph.edge_count g) (Metrics.average_degree g);

  let quota = 4 in
  let config = Owp_overlay.Overlay.homogeneous ~quota (Metric.latency pts) in
  let prefs = Owp_overlay.Overlay.preferences g config in
  let outcome = Owp_overlay.Overlay.build ~seed:1 g config in
  let lid_m = outcome.Owp_core.Pipeline.matching in

  let capacity = Array.init n (Preference.quota prefs) in
  let rand_m = random_maximal rng g capacity in

  Printf.printf "\n%-28s %12s %12s\n" "" "LID overlay" "random";
  Printf.printf "%-28s %12d %12d\n" "links established" (BM.size lid_m) (BM.size rand_m);
  Printf.printf "%-28s %12.4f %12.4f\n" "mean link distance"
    (mean_link_distance pts lid_m) (mean_link_distance pts rand_m);
  let quality m =
    Owp_overlay.Quality.measure prefs m (Owp_core.Pipeline.satisfaction_profile prefs m)
  in
  let q_lid = quality lid_m in
  let q_rand = quality rand_m in
  Printf.printf "%-28s %12.4f %12.4f\n" "mean satisfaction"
    q_lid.Owp_overlay.Quality.mean q_rand.Owp_overlay.Quality.mean;
  Printf.printf "%-28s %12.4f %12.4f\n" "5th-pct satisfaction"
    q_lid.Owp_overlay.Quality.p05 q_rand.Owp_overlay.Quality.p05;
  Printf.printf "%-28s %11.1f%% %11.1f%%\n" "peers with their top-b set"
    (100.0 *. q_lid.Owp_overlay.Quality.fully_satisfied_fraction)
    (100.0 *. q_rand.Owp_overlay.Quality.fully_satisfied_fraction)
