module M = Metric

let test_determinism () =
  let m1 = M.transaction_history ~seed:5 and m2 = M.transaction_history ~seed:5 in
  for i = 0 to 10 do
    for j = 0 to 10 do
      Alcotest.(check (float 0.0)) "same seed same score" (M.score m1 i j) (M.score m2 i j)
    done
  done

let test_seed_changes_scores () =
  let m1 = M.transaction_history ~seed:5 and m2 = M.transaction_history ~seed:6 in
  let diff = ref 0 in
  for i = 0 to 9 do
    for j = 0 to 9 do
      if M.score m1 i j <> M.score m2 i j then incr diff
    done
  done;
  Alcotest.(check bool) "most scores differ" true (!diff > 90)

let test_latency_prefers_closer () =
  let pts = [| (0.0, 0.0); (0.1, 0.0); (0.9, 0.9) |] in
  let m = M.latency pts in
  Alcotest.(check bool) "closer scores higher" true (M.score m 0 1 > M.score m 0 2);
  Alcotest.(check (float 1e-12)) "symmetric" (M.score m 0 2) (M.score m 2 0)

let test_bandwidth_is_global () =
  let m = M.bandwidth ~seed:3 in
  (* all observers agree on the score of a target *)
  for target = 0 to 5 do
    let base = M.score m 0 target in
    for observer = 1 to 5 do
      Alcotest.(check (float 0.0)) "observer independent" base (M.score m observer target)
    done
  done

let test_transactions_asymmetric () =
  let m = M.transaction_history ~seed:8 in
  let asym = ref 0 in
  for i = 0 to 9 do
    for j = i + 1 to 10 do
      if M.score m i j <> M.score m j i then incr asym
    done
  done;
  Alcotest.(check bool) "mostly asymmetric" true (!asym > 40)

let test_interest_positive_and_symmetric () =
  let m = M.interest ~seed:2 ~dims:6 in
  Alcotest.(check bool) "positive dot" true (M.score m 1 2 >= 0.0);
  Alcotest.(check (float 1e-12)) "symmetric" (M.score m 3 4) (M.score m 4 3)

let test_interest_invalid () =
  Alcotest.check_raises "dims" (Invalid_argument "Metric.interest: dims must be positive")
    (fun () -> ignore (M.interest ~seed:1 ~dims:0))

let test_combine () =
  let a = M.bandwidth ~seed:1 and b = M.transaction_history ~seed:2 in
  let c = M.combine "mixed" [ (0.5, a); (0.5, b) ] in
  Alcotest.(check string) "name" "mixed" (M.name c);
  Alcotest.(check (float 1e-12)) "linear"
    ((0.5 *. M.score a 1 2) +. (0.5 *. M.score b 1 2))
    (M.score c 1 2);
  Alcotest.check_raises "empty" (Invalid_argument "Metric.combine: empty combination")
    (fun () -> ignore (M.combine "x" []))

let test_scores_in_unit_interval () =
  let m = M.transaction_history ~seed:4 in
  for i = 0 to 20 do
    for j = 0 to 20 do
      let s = M.score m i j in
      Alcotest.(check bool) "in [0,1)" true (s >= 0.0 && s < 1.0)
    done
  done

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed changes scores" `Quick test_seed_changes_scores;
    Alcotest.test_case "latency prefers closer" `Quick test_latency_prefers_closer;
    Alcotest.test_case "bandwidth is global" `Quick test_bandwidth_is_global;
    Alcotest.test_case "transactions asymmetric" `Quick test_transactions_asymmetric;
    Alcotest.test_case "interest metric" `Quick test_interest_positive_and_symmetric;
    Alcotest.test_case "interest invalid" `Quick test_interest_invalid;
    Alcotest.test_case "combine" `Quick test_combine;
    Alcotest.test_case "scores in unit interval" `Quick test_scores_in_unit_interval;
  ]
