module Lid = Owp_core.Lid
module Lic = Owp_core.Lic
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Explore = Owp_check.Explore
module Prng = Owp_util.Prng
module Stack = Owp_core.Stack
module Checker = Owp_check.Checker

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

(* ------------------------------------------------------------------ *)
(* channel faults: the transport restores Lemmas 5-6 exactly           *)
(* ------------------------------------------------------------------ *)

let test_baseline_lid_stuck_reliable_converges () =
  (* the motivating contrast: same instance, same loss rate — plain LID
     deadlocks, the transport-backed variant converges to LIC's answer *)
  let _, _, w, capacity = random_instance 7 20 6 2 in
  let lic = Lic.run w ~capacity in
  let faults = Sim.faults ~drop:0.3 () in
  let plain = Stack.run ~seed:2 ~faults w ~capacity in
  Alcotest.(check bool) "plain LID gets stuck" false plain.Stack.all_terminated;
  let r = Stack.run ~seed:2 ~faults ~reliable:true w ~capacity in
  Alcotest.(check bool) "reliable LID terminates" true r.Stack.all_terminated;
  Alcotest.(check bool) "structural checkers pass" true
    (Checker.ok
       (Checker.run
          ~only:[ "edge-validity"; "quota"; "blocking-pair"; "maximality" ]
          (Checker.of_matching w r.Stack.matching)));
  Alcotest.(check bool) "and equals LIC" true (BM.equal r.Stack.matching lic);
  Alcotest.(check bool) "give-up never fired" true (Stack.counter r ~layer:"transport" "dead-links" = 0);
  Alcotest.(check bool) "overhead is reported" true (Stack.overhead r > 1.0)

let prop_quiesces_and_equals_lic_under_faults =
  (* the acceptance grid: drop x duplicate x fifo, all seeds *)
  QCheck2.Test.make
    ~name:"reliable LID quiesces and equals LIC for drop<=0.3, dup<=0.2, any fifo"
    ~count:60
    QCheck2.Gen.(
      tup4 (int_range 0 100_000) (int_range 0 2) (int_range 0 1) bool)
    (fun (seed, di, dupi, fifo) ->
      let drop = [| 0.0; 0.1; 0.3 |].(di) in
      let dup = [| 0.0; 0.2 |].(dupi) in
      let _, _, w, capacity = random_instance seed 16 5 2 in
      let lic = Lic.run w ~capacity in
      let faults = Sim.faults ~drop ~duplicate:dup () in
      let r = Stack.run ~seed:(seed + 31) ~fifo ~faults ~reliable:true w ~capacity in
      r.Stack.all_terminated
      && Stack.counter r ~layer:"transport" "dead-links" = 0
      && BM.equal r.Stack.matching lic)

let prop_survives_adversarial_reordering =
  QCheck2.Test.make ~name:"reliable LID equals LIC on a reordering non-FIFO net"
    ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 14 5 2 in
      let lic = Lic.run w ~capacity in
      let faults = Sim.faults ~drop:0.2 ~duplicate:0.2 ~reorder:0.3 () in
      let r =
        Stack.run ~seed ~fifo:false ~delay:(Sim.Uniform (0.01, 20.0)) ~faults ~reliable:true w ~capacity
      in
      r.Stack.all_terminated && BM.equal r.Stack.matching lic)

(* ------------------------------------------------------------------ *)
(* crash / restart                                                     *)
(* ------------------------------------------------------------------ *)

let test_failstop_with_patience () =
  (* a node dies early and never returns; with patience armed everyone
     else still converges, without its edges *)
  let g, _, w, capacity = random_instance 11 12 4 2 in
  let victim = 0 in
  let crashes = [ { Stack.victim; crash_at = 0.4; restart_at = None } ] in
  let r = Stack.run ~seed:4 ~reliable:true ~patience:60.0 ~crashes w ~capacity in
  Alcotest.(check bool) "survivors terminate" true r.Stack.all_terminated;
  Alcotest.(check int) "victim unmatched" 0 (BM.degree r.Stack.matching victim);
  Alcotest.(check bool) "some recovery happened" true
    (r.Stack.synthetic_rejects > 0 || Graph.degree g victim = 0);
  Alcotest.(check bool) "crash loss accounted" true
    (Stack.counter r ~layer:"channel" "lost-to-crashes" > 0)

let test_failstop_without_patience_reported () =
  (* without patience a neighbour whose ACKed proposal is answered by
     silence waits forever — the report must say so, not lie *)
  let _, _, w, capacity = random_instance 13 12 4 2 in
  let crashes = [ { Stack.victim = 1; crash_at = 2.0; restart_at = None } ] in
  let r = Stack.run ~seed:9 ~reliable:true ~crashes w ~capacity in
  (* with give-up for unACKed traffic some seeds still converge; the
     invariant is coherence: all_terminated iff no live straggler *)
  Alcotest.(check bool) "report coherent" true
    (r.Stack.all_terminated = (r.Stack.quiescence = []))

let test_crash_restart_amnesia () =
  let _, _, w, capacity = random_instance 17 12 4 2 in
  let victim = 2 in
  let crashes = [ { Stack.victim; crash_at = 0.6; restart_at = Some 4.0 } ] in
  let r = Stack.run ~seed:5 ~reliable:true ~patience:60.0 ~crashes w ~capacity in
  Alcotest.(check bool) "everyone live terminates" true r.Stack.all_terminated;
  (* the restarted incarnation lost its state: it declines everything,
     so it holds no edges in the final matching *)
  Alcotest.(check int) "amnesiac holds nothing" 0 (BM.degree r.Stack.matching victim)

let test_crash_plan_validation () =
  let _, _, w, capacity = random_instance 19 6 3 1 in
  Alcotest.check_raises "victim range"
    (Invalid_argument "Stack.run: crash victim out of range") (fun () ->
      ignore
        (Stack.run ~reliable:true ~crashes:[ { Stack.victim = 99; crash_at = 1.0; restart_at = None } ] w
           ~capacity));
  Alcotest.check_raises "restart order"
    (Invalid_argument "Stack.run: restart not after crash") (fun () ->
      ignore
        (Stack.run ~reliable:true
           ~crashes:[ { Stack.victim = 0; crash_at = 2.0; restart_at = Some 1.0 } ]
           w ~capacity));
  Alcotest.check_raises "patience sign"
    (Invalid_argument "Stack.run: patience must be positive") (fun () ->
      ignore (Stack.run ~reliable:true ~patience:0.0 w ~capacity))

(* ------------------------------------------------------------------ *)
(* exhaustive exploration with adversarial link failures               *)
(* ------------------------------------------------------------------ *)

let explore_instances () =
  let path n =
    Graph.of_edge_list n (List.init (n - 1) (fun i -> (i, i + 1)))
  in
  let cycle n =
    Graph.of_edge_list n (List.init n (fun i -> (i, (i + 1) mod n)))
  in
  let inst label g weights quota =
    (label, Weights.of_array g (Array.of_list weights), Array.make (Graph.node_count g) quota)
  in
  [
    inst "path3" (path 3) [ 2.0; 1.0 ] 1;
    inst "triangle" (cycle 3) [ 3.0; 2.0; 1.0 ] 1;
    inst "path4" (path 4) [ 1.0; 3.0; 2.0 ] 1;
    inst "cycle4-b2" (cycle 4) [ 4.0; 3.0; 2.0; 1.0 ] 2;
    inst "star4" (Gen.star 4) [ 3.0; 2.0; 1.0 ] 1;
  ]

let test_explorer_with_adversarial_drops () =
  List.iter
    (fun (label, w, capacity) ->
      List.iter
        (fun budget ->
          let verdict =
            Explore.explore ~max_link_failures:budget (Lid.model w ~capacity)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: complete search (%d failures)" label budget)
            false verdict.Explore.stats.Explore.truncated;
          (* Lemma 5 must hold on every schedule, however the adversary
             spends its failure budget *)
          Alcotest.(check (list string))
            (Printf.sprintf "%s: no violation (%d failures)" label budget)
            []
            (List.map
               (fun v -> v.Owp_check.Violation.checker)
               verdict.Explore.violations))
        [ 1; 2 ])
    (explore_instances ())

let test_explorer_failure_free_subset_matches_lic () =
  (* budget > 0 explores a superset of the failure-free tree; the
     failure-free observation (LIC's edge set) must still be among the
     outcomes *)
  List.iter
    (fun (label, w, capacity) ->
      let lic = BM.edge_ids (Lic.run w ~capacity) in
      let verdict = Explore.explore ~max_link_failures:1 (Lid.model w ~capacity) in
      Alcotest.(check bool)
        (label ^ ": LIC outcome reachable")
        true
        (List.mem lic verdict.Explore.observations))
    (explore_instances ())

let suite =
  [
    Alcotest.test_case "stuck baseline vs convergence" `Quick
      test_baseline_lid_stuck_reliable_converges;
    QCheck_alcotest.to_alcotest prop_quiesces_and_equals_lic_under_faults;
    QCheck_alcotest.to_alcotest prop_survives_adversarial_reordering;
    Alcotest.test_case "fail-stop with patience" `Quick test_failstop_with_patience;
    Alcotest.test_case "fail-stop report coherent" `Quick
      test_failstop_without_patience_reported;
    Alcotest.test_case "crash-restart amnesia" `Quick test_crash_restart_amnesia;
    Alcotest.test_case "crash plan validation" `Quick test_crash_plan_validation;
    Alcotest.test_case "explorer: adversarial drops" `Quick
      test_explorer_with_adversarial_drops;
    Alcotest.test_case "explorer: LIC reachable" `Quick
      test_explorer_failure_free_subset_matches_lic;
  ]
