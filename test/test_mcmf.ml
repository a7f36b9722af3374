module Mcmf = Owp_matching.Mcmf

let test_single_path () =
  let n = Mcmf.create 3 in
  let e0 = Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:5 ~cost:(-2.0) in
  let e1 = Mcmf.add_edge n ~src:1 ~dst:2 ~capacity:3 ~cost:(-1.0) in
  let flow, cost = Mcmf.min_cost_flow n ~source:0 ~sink:2 in
  Alcotest.(check int) "bottleneck flow" 3 flow;
  Alcotest.(check (float 1e-9)) "cost" (-9.0) cost;
  Alcotest.(check int) "flow on e0" 3 (Mcmf.flow_on n e0);
  Alcotest.(check int) "flow on e1" 3 (Mcmf.flow_on n e1)

let test_stops_at_nonnegative () =
  let n = Mcmf.create 2 in
  ignore (Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:5 ~cost:1.0);
  let flow, cost = Mcmf.min_cost_flow n ~source:0 ~sink:1 in
  Alcotest.(check int) "no profitable path" 0 flow;
  Alcotest.(check (float 1e-9)) "zero cost" 0.0 cost

let test_chooses_cheaper_path () =
  (* two parallel 0->1->3 / 0->2->3 paths; cheaper one used first *)
  let n = Mcmf.create 4 in
  ignore (Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:1 ~cost:(-5.0));
  ignore (Mcmf.add_edge n ~src:1 ~dst:3 ~capacity:1 ~cost:0.0);
  ignore (Mcmf.add_edge n ~src:0 ~dst:2 ~capacity:1 ~cost:(-1.0));
  ignore (Mcmf.add_edge n ~src:2 ~dst:3 ~capacity:1 ~cost:0.0);
  let flow, cost = Mcmf.min_cost_flow n ~source:0 ~sink:3 in
  Alcotest.(check int) "both profitable" 2 flow;
  Alcotest.(check (float 1e-9)) "total" (-6.0) cost

let test_residual_rerouting () =
  (* classic rerouting: augmenting a second unit must use the residual
     arc of the first path to stay optimal *)
  let n = Mcmf.create 4 in
  ignore (Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:1 ~cost:(-10.0));
  ignore (Mcmf.add_edge n ~src:1 ~dst:3 ~capacity:1 ~cost:(-10.0));
  ignore (Mcmf.add_edge n ~src:0 ~dst:2 ~capacity:1 ~cost:(-1.0));
  ignore (Mcmf.add_edge n ~src:2 ~dst:1 ~capacity:1 ~cost:(-1.0));
  ignore (Mcmf.add_edge n ~src:1 ~dst:2 ~capacity:0 ~cost:0.0);
  let flow, cost = Mcmf.min_cost_flow n ~source:0 ~sink:3 in
  Alcotest.(check int) "single unit (1->3 is the only sink arc)" 1 flow;
  Alcotest.(check (float 1e-9)) "best path" (-20.0) cost

let test_disconnected () =
  let n = Mcmf.create 3 in
  ignore (Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:1 ~cost:(-1.0));
  let flow, _ = Mcmf.min_cost_flow n ~source:0 ~sink:2 in
  Alcotest.(check int) "unreachable sink" 0 flow

let test_add_edge_validation () =
  let n = Mcmf.create 2 in
  Alcotest.check_raises "bad vertex" (Invalid_argument "Mcmf.add_edge: vertex out of range")
    (fun () -> ignore (Mcmf.add_edge n ~src:0 ~dst:5 ~capacity:1 ~cost:0.0));
  Alcotest.check_raises "bad capacity" (Invalid_argument "Mcmf.add_edge: negative capacity")
    (fun () -> ignore (Mcmf.add_edge n ~src:0 ~dst:1 ~capacity:(-1) ~cost:0.0))

let suite =
  [
    Alcotest.test_case "single path" `Quick test_single_path;
    Alcotest.test_case "stops at nonnegative" `Quick test_stops_at_nonnegative;
    Alcotest.test_case "chooses cheaper path" `Quick test_chooses_cheaper_path;
    Alcotest.test_case "residual rerouting" `Quick test_residual_rerouting;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "add_edge validation" `Quick test_add_edge_validation;
  ]
