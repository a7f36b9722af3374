module Prng = Owp_util.Prng

let rng () = Prng.create 1234

let test_gnp_extremes () =
  let g0 = Gen.gnp (rng ()) ~n:20 ~p:0.0 in
  Alcotest.(check int) "p=0 empty" 0 (Graph.edge_count g0);
  let g1 = Gen.gnp (rng ()) ~n:20 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 190 (Graph.edge_count g1)

let test_gnp_density () =
  let g = Gen.gnp (rng ()) ~n:400 ~p:0.05 in
  let expected = 0.05 *. float_of_int (400 * 399 / 2) in
  let m = float_of_int (Graph.edge_count g) in
  Alcotest.(check bool) "within 15% of expectation" true
    (Float.abs (m -. expected) < 0.15 *. expected)

let test_gnp_invalid () =
  Alcotest.check_raises "bad p" (Invalid_argument "Gen.gnp: p out of range") (fun () ->
      ignore (Gen.gnp (rng ()) ~n:5 ~p:1.5))

let test_gnm_exact () =
  let g = Gen.gnm (rng ()) ~n:50 ~m:200 in
  Alcotest.(check int) "m exact" 200 (Graph.edge_count g);
  let dense = Gen.gnm (rng ()) ~n:10 ~m:45 in
  Alcotest.(check int) "complete via gnm" 45 (Graph.edge_count dense)

let test_gnm_dense_path () =
  (* 2m > max: exercises the sample-without-replacement decode branch *)
  let g = Gen.gnm (rng ()) ~n:12 ~m:50 in
  Alcotest.(check int) "dense m exact" 50 (Graph.edge_count g)

let test_gnm_invalid () =
  Alcotest.check_raises "m too big" (Invalid_argument "Gen.gnm: m out of range")
    (fun () -> ignore (Gen.gnm (rng ()) ~n:4 ~m:7))

let test_complete () =
  let g = Gen.complete 7 in
  Alcotest.(check int) "edges" 21 (Graph.edge_count g);
  for v = 0 to 6 do
    Alcotest.(check int) "degree" 6 (Graph.degree g v)
  done

let test_barabasi_albert () =
  let n = 100 and m = 3 in
  let g = Gen.barabasi_albert (rng ()) ~n ~m in
  Alcotest.(check int) "nodes" n (Graph.node_count g);
  (* seed clique (m+1 choose 2) + m edges per arrival *)
  let expected = (m * (m + 1) / 2) + ((n - m - 1) * m) in
  Alcotest.(check int) "edges" expected (Graph.edge_count g);
  (* arrivals have degree >= m *)
  for v = 0 to n - 1 do
    Alcotest.(check bool) "min degree" true (Graph.degree g v >= m)
  done

let test_ba_invalid () =
  Alcotest.check_raises "n <= m" (Invalid_argument "Gen.barabasi_albert: need n > m >= 1")
    (fun () -> ignore (Gen.barabasi_albert (rng ()) ~n:3 ~m:3))

let test_watts_strogatz_lattice () =
  let g = Gen.watts_strogatz (rng ()) ~n:30 ~k:3 ~beta:0.0 in
  Alcotest.(check int) "ring lattice edges" (30 * 3) (Graph.edge_count g);
  for v = 0 to 29 do
    Alcotest.(check int) "2k degree" 6 (Graph.degree g v)
  done

let test_watts_strogatz_rewired () =
  let g = Gen.watts_strogatz (rng ()) ~n:200 ~k:4 ~beta:0.3 in
  Alcotest.(check bool) "edge count near n*k" true
    (Graph.edge_count g > 190 * 4 && Graph.edge_count g <= 200 * 4);
  Alcotest.(check bool) "rewiring shortens diameter vs lattice" true
    (Metrics.eccentricity_lower_bound g < 25)

let test_random_geometric () =
  let g, pts = Gen.random_geometric (rng ()) ~n:150 ~radius:0.15 in
  Alcotest.(check int) "points" 150 (Array.length pts);
  (* verify against brute force *)
  let expected = ref 0 in
  for i = 0 to 149 do
    for j = i + 1 to 149 do
      let xi, yi = pts.(i) and xj, yj = pts.(j) in
      let d2 = ((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0) in
      if d2 <= 0.15 *. 0.15 then incr expected
    done
  done;
  Alcotest.(check int) "edges match brute force" !expected (Graph.edge_count g)

let test_grid () =
  let g = Gen.grid ~width:4 ~height:3 in
  Alcotest.(check int) "nodes" 12 (Graph.node_count g);
  (* horizontal 3*3 + vertical 4*2 *)
  Alcotest.(check int) "edges" 17 (Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Metrics.is_connected g)

let test_torus () =
  let g = Gen.torus ~width:5 ~height:4 in
  Alcotest.(check int) "nodes" 20 (Graph.node_count g);
  Alcotest.(check int) "edges 2n" 40 (Graph.edge_count g);
  for v = 0 to 19 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done

let test_bipartite () =
  let g = Gen.random_bipartite (rng ()) ~left:10 ~right:15 ~p:0.4 in
  Graph.iter_edges g (fun _ u v ->
      Alcotest.(check bool) "crosses parts" true (u < 10 && v >= 10))

let test_power_law () =
  let g = Gen.configuration_power_law (rng ()) ~n:300 ~exponent:2.5 ~min_degree:2 in
  Alcotest.(check int) "nodes" 300 (Graph.node_count g);
  Alcotest.(check bool) "has edges" true (Graph.edge_count g > 250);
  (* heavy tail: max degree well above the minimum *)
  Alcotest.(check bool) "skewed degrees" true (Graph.max_degree g >= 8)

let test_ring_star_path () =
  let r = Gen.ring 8 in
  Alcotest.(check int) "ring edges" 8 (Graph.edge_count r);
  for v = 0 to 7 do
    Alcotest.(check int) "ring degree" 2 (Graph.degree r v)
  done;
  let s = Gen.star 6 in
  Alcotest.(check int) "star edges" 5 (Graph.edge_count s);
  Alcotest.(check int) "hub degree" 5 (Graph.degree s 0);
  let p = Gen.path 5 in
  Alcotest.(check int) "path edges" 4 (Graph.edge_count p);
  Alcotest.(check int) "path end" 1 (Graph.degree p 0)

let test_generators_deterministic () =
  let g1 = Gen.gnp (Prng.create 77) ~n:60 ~p:0.1 in
  let g2 = Gen.gnp (Prng.create 77) ~n:60 ~p:0.1 in
  Alcotest.(check int) "same edge count" (Graph.edge_count g1) (Graph.edge_count g2);
  Graph.iter_edges g1 (fun eid u v ->
      Alcotest.(check (pair int int)) "same edges" (u, v) (Graph.edge_endpoints g2 eid))

let suite =
  [
    Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
    Alcotest.test_case "gnp density" `Quick test_gnp_density;
    Alcotest.test_case "gnp invalid" `Quick test_gnp_invalid;
    Alcotest.test_case "gnm exact" `Quick test_gnm_exact;
    Alcotest.test_case "gnm dense path" `Quick test_gnm_dense_path;
    Alcotest.test_case "gnm invalid" `Quick test_gnm_invalid;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
    Alcotest.test_case "ba invalid" `Quick test_ba_invalid;
    Alcotest.test_case "watts-strogatz lattice" `Quick test_watts_strogatz_lattice;
    Alcotest.test_case "watts-strogatz rewired" `Quick test_watts_strogatz_rewired;
    Alcotest.test_case "random geometric" `Quick test_random_geometric;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "bipartite" `Quick test_bipartite;
    Alcotest.test_case "power law" `Quick test_power_law;
    Alcotest.test_case "ring/star/path" `Quick test_ring_star_path;
    Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
  ]
