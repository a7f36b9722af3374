module P = Preference
module Prng = Owp_util.Prng

let diamond () =
  (* 0-1, 0-2, 1-2, 1-3, 2-3 *)
  Graph.of_edge_list 4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]

let test_create_and_rank () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 1; 2; 2; 1 |] ~lists in
  Alcotest.(check int) "rank 0->2" 0 (P.rank p 0 2);
  Alcotest.(check int) "rank 0->1" 1 (P.rank p 0 1);
  Alcotest.(check int) "rank 1->2" 2 (P.rank p 1 2);
  Alcotest.(check bool) "preferred" true (P.preferred p 1 0 2);
  Alcotest.(check (array int)) "list back" [| 3; 0; 1 |] (P.list p 2);
  Alcotest.(check int) "list_len" 3 (P.list_len p 1)

let test_rank_not_neighbor () =
  let g = diamond () in
  let p = P.random (Prng.create 1) g ~quota:(P.uniform_quota g 2) in
  Alcotest.check_raises "not adjacent" Not_found (fun () -> ignore (P.rank p 0 3))

let test_create_validation () =
  let g = diamond () in
  let bad_len = [| [| 2 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Preference.create: list is not a permutation of the neighbourhood")
    (fun () -> ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:bad_len));
  let non_nbr = [| [| 2; 3 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "non neighbour"
    (Invalid_argument "Preference.create: list contains a non-neighbour") (fun () ->
      ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:non_nbr));
  let dup = [| [| 2; 2 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Preference.create: duplicate entry in preference list") (fun () ->
      ignore (P.create g ~quota:[| 1; 1; 1; 1 |] ~lists:dup));
  Alcotest.check_raises "negative quota" (Invalid_argument "Preference.create: negative quota")
    (fun () ->
      ignore
        (P.create g ~quota:[| -1; 1; 1; 1 |]
           ~lists:[| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |]))

let test_quota_clamped () =
  let g = diamond () in
  let p = P.random (Prng.create 2) g ~quota:(P.uniform_quota g 10) in
  Alcotest.(check int) "clamped to degree" 2 (P.quota p 0);
  Alcotest.(check int) "clamped to degree 3" 3 (P.quota p 1);
  Alcotest.(check int) "max quota" 3 (P.max_quota p)

let test_of_scores_ordering () =
  let g = diamond () in
  let score _ j = float_of_int j in
  let p = P.of_scores g ~quota:(P.uniform_quota g 2) score in
  (* node 1's neighbours are 0, 2, 3 -> descending score: 3, 2, 0 *)
  Alcotest.(check (array int)) "descending score" [| 3; 2; 0 |] (P.list p 1)

let test_of_scores_tie_break () =
  let g = diamond () in
  let p = P.of_scores g ~quota:(P.uniform_quota g 2) (fun _ _ -> 1.0) in
  (* all tied: lower id first *)
  Alcotest.(check (array int)) "id tie-break" [| 0; 2; 3 |] (P.list p 1)

let test_random_lists_are_permutations () =
  let g = Gen.gnm (Prng.create 7) ~n:40 ~m:120 in
  let p = P.random (Prng.create 8) g ~quota:(P.uniform_quota g 3) in
  for v = 0 to 39 do
    let l = Array.copy (P.list p v) in
    Array.sort compare l;
    Alcotest.(check (array int)) "permutation of neighbourhood" (Graph.neighbor_nodes g v) l
  done

let test_satisfaction_wrappers () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 2; 2; 2; 2 |] ~lists in
  (* node 1 connected to its top two: satisfaction 1 *)
  Alcotest.(check (float 1e-9)) "top two" 1.0 (P.satisfaction p 1 [ 0; 3 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (P.satisfaction p 1 []);
  let conns = [| []; [ 0; 2 ]; []; [] |] in
  Alcotest.(check bool) "static <= full" true
    (P.total_static_satisfaction p conns <= P.total_satisfaction p conns +. 1e-12)

let test_total_satisfaction () =
  let g = diamond () in
  let lists = [| [| 2; 1 |]; [| 0; 3; 2 |]; [| 3; 0; 1 |]; [| 1; 2 |] |] in
  let p = P.create g ~quota:[| 1; 1; 1; 1 |] ~lists in
  (* match 0-1 and 2-3: nodes 1 and 2 get their top choice (S = 1),
     nodes 0 and 3 their second of two (S = 1 - 1/(1*2) = 1/2) *)
  let conns = [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |] in
  Alcotest.(check (float 1e-9)) "known total" 3.0 (P.total_satisfaction p conns)

let test_isolated_node () =
  let g = Graph.of_edge_list 3 [ (0, 1) ] in
  let p = P.random (Prng.create 3) g ~quota:(P.uniform_quota g 2) in
  Alcotest.(check int) "quota 0" 0 (P.quota p 2);
  Alcotest.(check (float 1e-9)) "satisfaction 0" 0.0 (P.satisfaction p 2 [])

let test_acyclic_bandwidth () =
  let g = Gen.gnm (Prng.create 11) ~n:30 ~m:90 in
  let p = P.of_metric g ~quota:(P.uniform_quota g 2) (Metric.bandwidth ~seed:1) in
  Alcotest.(check bool) "global ranking is acyclic" true (P.is_acyclic p)

let test_cycle_detected () =
  (* triangle where each prefers the next over the previous *)
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2); (0, 2) ] in
  let lists = [| [| 1; 2 |]; [| 2; 0 |]; [| 0; 1 |] |] in
  let p = P.create g ~quota:[| 1; 1; 1 |] ~lists in
  Alcotest.(check bool) "not acyclic" false (P.is_acyclic p)

let test_cycle_validity () =
  (* a cyclic triangle — a, b, c adjacent, each preferring the next over
     the previous — is a preference cycle, so wherever brute force finds
     one on a random system, is_acyclic must say no *)
  let g = Gen.gnm (Prng.create 21) ~n:25 ~m:80 in
  let p = P.random (Prng.create 22) g ~quota:(P.uniform_quota g 2) in
  let cyclic a b c =
    Graph.mem_edge g a b && Graph.mem_edge g b c && Graph.mem_edge g c a
    && P.preferred p a b c && P.preferred p b c a && P.preferred p c a b
  in
  let found = ref false in
  for a = 0 to 24 do
    for b = 0 to 24 do
      for c = 0 to 24 do
        if a <> b && b <> c && a <> c && cyclic a b c then found := true
      done
    done
  done;
  if !found then Alcotest.(check bool) "cyclic triangle seen" false (P.is_acyclic p)

let suite =
  [
    Alcotest.test_case "create and rank" `Quick test_create_and_rank;
    Alcotest.test_case "rank not neighbour" `Quick test_rank_not_neighbor;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "quota clamped" `Quick test_quota_clamped;
    Alcotest.test_case "of_scores ordering" `Quick test_of_scores_ordering;
    Alcotest.test_case "of_scores tie-break" `Quick test_of_scores_tie_break;
    Alcotest.test_case "random lists are permutations" `Quick test_random_lists_are_permutations;
    Alcotest.test_case "satisfaction wrappers" `Quick test_satisfaction_wrappers;
    Alcotest.test_case "total satisfaction" `Quick test_total_satisfaction;
    Alcotest.test_case "isolated node" `Quick test_isolated_node;
    Alcotest.test_case "acyclic bandwidth" `Quick test_acyclic_bandwidth;
    Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
    Alcotest.test_case "cycle validity" `Quick test_cycle_validity;
  ]
