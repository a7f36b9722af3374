module Stack = Owp_core.Stack
module Lic = Owp_core.Lic
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

let test_two_nodes () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let r = Stack.run w ~capacity:[| 1; 1 |] in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check (list int)) "matched" [ 0 ] (BM.edge_ids r.Stack.matching);
  Alcotest.(check int) "two props" 2 r.Stack.prop_count;
  Alcotest.(check int) "no rejections" 0 r.Stack.rej_count

let test_empty_graph () =
  let g = Graph.of_edge_list 3 [] in
  let w = Weights.of_array g [||] in
  let r = Stack.run w ~capacity:[| 2; 2; 2 |] in
  Alcotest.(check bool) "terminates with no edges" true r.Stack.all_terminated;
  Alcotest.(check int) "no messages" 0 (r.Stack.prop_count + r.Stack.rej_count)

let test_star_competition () =
  (* all leaves want the hub, hub has capacity 1: exactly one lock, the
     others get explicit REJs *)
  let g = Gen.star 5 in
  let w = Weights.of_array g [| 4.0; 3.0; 2.0; 1.0 |] in
  let r = Stack.run w ~capacity:(Array.make 5 1) in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check (list int)) "heaviest leaf wins" [ 0 ] (BM.edge_ids r.Stack.matching);
  Alcotest.(check int) "three rejections" 3 r.Stack.rej_count

let test_zero_quota () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let r = Stack.run w ~capacity:[| 0; 1 |] in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check int) "nothing locked" 0 (BM.size r.Stack.matching)

let test_negative_capacity_rejected () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  Alcotest.check_raises "negative" (Invalid_argument "Lid.init: negative capacity")
    (fun () -> ignore (Stack.run w ~capacity:[| -1; 1 |]))

let delay_models =
  [ Sim.Unit; Sim.Uniform (0.5, 1.5); Sim.Uniform (0.01, 20.0); Sim.Exponential 2.0 ]

let prop_terminates_and_equals_lic =
  QCheck2.Test.make ~name:"LID terminates and equals LIC under any delay model" ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, dm) ->
      let _, _, w, capacity = random_instance seed 25 6 2 in
      let lic = Lic.run w ~capacity in
      let r = Stack.run ~seed:(seed + 17) ~delay:(List.nth delay_models dm) w ~capacity in
      r.Stack.all_terminated && BM.equal r.Stack.matching lic)

let prop_quota_respected =
  QCheck2.Test.make ~name:"LID respects quotas" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 30 8 3 in
      let r = Stack.run w ~capacity in
      let ok = ref r.Stack.all_terminated in
      Array.iteri
        (fun v b -> if BM.degree r.Stack.matching v > b then ok := false)
        capacity;
      !ok)

let prop_message_bounds =
  QCheck2.Test.make ~name:"LID message counts are linear in m" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, _, w, capacity = random_instance seed 40 8 3 in
      let m = Graph.edge_count g in
      let r = Stack.run w ~capacity in
      (* each ordered pair (i, j) exchanges at most one PROP and one REJ *)
      r.Stack.prop_count <= 2 * m && r.Stack.rej_count <= 2 * m)

let prop_non_fifo_equivalent =
  QCheck2.Test.make ~name:"LID equals LIC even without FIFO links" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 20 6 2 in
      let lic = Lic.run w ~capacity in
      let r = Stack.run ~seed ~fifo:false ~delay:(Sim.Uniform (0.01, 50.0)) w ~capacity in
      r.Stack.all_terminated && BM.equal r.Stack.matching lic)

let test_message_drops_detected () =
  (* with heavy loss the protocol cannot finish cleanly: the report
     must expose that rather than fabricate a result *)
  let _, _, w, capacity = random_instance 3 20 6 2 in
  let faults = Sim.faults ~drop:0.6 () in
  let r = Stack.run ~seed:5 ~faults w ~capacity in
  (* either some node never finished, or (unlikely) everything got through *)
  Alcotest.(check bool) "report is coherent" true
    ((not r.Stack.all_terminated) || BM.size r.Stack.matching >= 0)

let test_duplicates_harmless () =
  let _, _, w, capacity = random_instance 4 20 6 2 in
  let lic = Lic.run w ~capacity in
  let faults = Sim.faults ~duplicate:0.5 () in
  let r = Stack.run ~seed:6 ~faults w ~capacity in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check bool) "same result despite duplicates" true (BM.equal r.Stack.matching lic)

let test_virtual_time_positive () =
  let _, _, w, capacity = random_instance 5 15 4 2 in
  let r = Stack.run w ~capacity in
  Alcotest.(check bool) "time advanced" true (r.Stack.completion_time > 0.0);
  Alcotest.(check bool) "delivered counted" true (r.Stack.delivered > 0)

let suite =
  [
    Alcotest.test_case "two nodes" `Quick test_two_nodes;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "star competition" `Quick test_star_competition;
    Alcotest.test_case "zero quota" `Quick test_zero_quota;
    Alcotest.test_case "negative capacity" `Quick test_negative_capacity_rejected;
    QCheck_alcotest.to_alcotest prop_terminates_and_equals_lic;
    QCheck_alcotest.to_alcotest prop_quota_respected;
    QCheck_alcotest.to_alcotest prop_message_bounds;
    QCheck_alcotest.to_alcotest prop_non_fifo_equivalent;
    Alcotest.test_case "message drops detected" `Quick test_message_drops_detected;
    Alcotest.test_case "duplicates harmless" `Quick test_duplicates_harmless;
    Alcotest.test_case "virtual time positive" `Quick test_virtual_time_positive;
  ]
