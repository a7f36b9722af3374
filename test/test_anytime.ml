(* The deadline layer and its anytime certificate: a budgeted run must
   serve a feasible prefix of the unbudgeted run's matching, with
   satisfaction monotone in the budget on a fixed seed (same seed =
   same event prefix, so locks only ever grow with the horizon). *)

module Stack = Owp_core.Stack
module Lid = Owp_core.Lid
module RC = Owp_core.Run_config
module P = Owp_core.Pipeline
module A = Owp_check.Anytime
module Sim = Owp_simnet.Simnet
module Adversary = Owp_simnet.Adversary
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(n * avg_deg / 2) in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  (p, Weights.of_preference p, Array.init n (Preference.quota p))

let subset small big =
  let in_big = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace in_big e ()) big;
  List.for_all (Hashtbl.mem in_big) small

(* --- the stack's deadline layer ----------------------------------- *)

let test_stack_deadline_monotone () =
  let prefs, w, capacity = instance 31 80 8 3 in
  let full = Stack.run ~seed:9 w ~capacity in
  let reference = BM.edge_ids full.Stack.matching in
  let prev = ref (-1.0) in
  List.iter
    (fun d ->
      let r = Stack.run ~seed:9 ~deadline:d w ~capacity in
      let edges = BM.edge_ids r.Stack.matching in
      Alcotest.(check bool)
        (Printf.sprintf "served at %.1f is a prefix of the full run" d)
        true (subset edges reference);
      let cert =
        A.check (A.instance ~prefs ~reference w ~capacity ~budget:d ~edges)
      in
      Alcotest.(check bool) "certified" true (A.certified cert);
      let s = Option.value cert.A.satisfaction ~default:0.0 in
      Alcotest.(check bool)
        (Printf.sprintf "satisfaction monotone at %.1f" d)
        true
        (s >= !prev -. 1e-9);
      prev := s)
    [ 1.0; 2.0; 3.0; 5.0; 8.0; 20.0 ]

let test_stack_cutoff_report () =
  let _, w, capacity = instance 32 60 6 2 in
  let full = Stack.run ~seed:4 w ~capacity in
  Alcotest.(check bool) "no cutoff without a budget" true
    (Option.is_none full.Stack.cutoff);
  let r = Stack.run ~seed:4 ~deadline:1.5 w ~capacity in
  (match r.Stack.cutoff with
  | None -> Alcotest.fail "budgeted run must carry a cutoff record"
  | Some c ->
      Alcotest.(check (float 1e-9)) "cut at the budget" 1.5 c.Stack.cut_at;
      Alcotest.(check bool) "counters non-negative" true
        (c.Stack.released >= 0 && c.Stack.half_locks >= 0 && c.Stack.abandoned >= 0));
  (* after the freeze every node is finished: the run reports quiescence
     by construction, the cutoff record carries the distinctness *)
  Alcotest.(check bool) "frozen run is quiescent" true r.Stack.all_terminated;
  (* the deadline layer's counter row is present on budgeted runs *)
  Alcotest.(check bool) "deadline layer row" true
    (List.exists (fun l -> l.Stack.layer = "deadline") r.Stack.layers);
  Alcotest.(check bool) "no deadline row unbudgeted" true
    (not (List.exists (fun l -> l.Stack.layer = "deadline") full.Stack.layers))

let test_max_rounds_is_deadline_in_round_lengths () =
  let _, w, capacity = instance 33 50 6 2 in
  (* under the unit delay model one round is 1.0 time units, so
     max_rounds k and deadline (float k) are the same budget *)
  let a = Stack.run ~seed:5 ~delay:Sim.Unit ~max_rounds:2 w ~capacity in
  let b = Stack.run ~seed:5 ~delay:Sim.Unit ~deadline:2.0 w ~capacity in
  Alcotest.(check bool) "same served matching" true
    (BM.equal a.Stack.matching b.Stack.matching);
  Alcotest.(check (float 1e-9)) "unit round length" 1.0 (Stack.round_length Sim.Unit)

let test_stack_budget_validation () =
  let _, w, capacity = instance 34 20 4 2 in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "non-positive deadline" true
    (raises (fun () -> Stack.run ~deadline:0.0 w ~capacity));
  Alcotest.(check bool) "non-positive max_rounds" true
    (raises (fun () -> Stack.run ~max_rounds:0 w ~capacity));
  Alcotest.(check bool) "both spellings" true
    (raises (fun () -> Stack.run ~deadline:1.0 ~max_rounds:1 w ~capacity))

let test_full_composition_certifies () =
  let prefs, w, capacity = instance 35 80 8 3 in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.3 () in
  let adversaries =
    Adversary.assign (Prng.create 77) ~n:80 (Adversary.parse_spec "liar:0.2")
  in
  let run d =
    Stack.run ~seed:6 ~fifo:false ~faults ~reliable:true ~adversaries ~guard:true
      ~prefs ?deadline:d w ~capacity
  in
  let full = run None in
  let r = run (Some 4.0) in
  Alcotest.(check bool) "cutoff present" true (Option.is_some r.Stack.cutoff);
  Alcotest.(check bool) "no damage at cutoff" true (r.Stack.damage = []);
  let cert =
    A.check
      (A.instance ~prefs
         ~reference:(BM.edge_ids full.Stack.matching)
         w ~capacity ~budget:4.0
         ~edges:(BM.edge_ids r.Stack.matching))
  in
  Alcotest.(check bool) "composition certifies" true (A.certified cert)

(* --- the zero-layer deadline path ---------------------------------- *)

let test_lid_run_deadline () =
  let _, w, capacity = instance 36 60 6 2 in
  let full = Stack.run ~seed:3 w ~capacity in
  let r = Stack.run ~seed:3 ~deadline:2.0 w ~capacity in
  (match r.Stack.cutoff with
  | None -> Alcotest.fail "Stack.run ~deadline must report a cutoff"
  | Some c -> Alcotest.(check (float 1e-9)) "cut at the budget" 2.0 c.Stack.cut_at);
  Alcotest.(check bool) "served is a prefix of the full run" true
    (subset (BM.edge_ids r.Stack.matching) (BM.edge_ids full.Stack.matching));
  Alcotest.(check bool) "raises on a non-positive deadline" true
    (match Stack.run ~deadline:(-1.0) w ~capacity with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- run_config / pipeline plumbing ------------------------------- *)

let test_pipeline_budgeted_outcome () =
  let prefs, _, _ = instance 37 60 6 2 in
  let out =
    P.run_config (RC.make ~engine:RC.Lid ~seed:8 ~deadline:2.0 ~check:true ()) prefs
  in
  let cutoff (o : P.outcome) =
    match o.P.detail with P.Stack r -> r.Stack.cutoff | P.Plain -> None
  in
  Alcotest.(check bool) "outcome carries the cutoff" true (Option.is_some (cutoff out));
  Alcotest.(check bool) "no Theorem 3 guarantee at cutoff" true
    (Option.is_none out.P.guarantee);
  (* the armed checkers drop to instance level: feasibility must hold,
     maximality/blocking-pair are deliberately not asserted *)
  (match out.P.check_report with
  | None -> Alcotest.fail "check:true must produce a report"
  | Some rep ->
      Alcotest.(check bool) "feasibility holds at cutoff" true
        (Owp_check.Checker.ok rep));
  let unbudgeted = P.run_config (RC.make ~engine:RC.Lid ~seed:8 ()) prefs in
  Alcotest.(check bool) "no cutoff without a budget" true
    (Option.is_none (cutoff unbudgeted))

(* --- the certificate checker itself ------------------------------- *)

let test_certificate_void_cases () =
  let prefs, w, capacity = instance 38 30 4 1 in
  let g = Weights.graph w in
  (* overfull: every edge at once busts quota 1 somewhere *)
  let all_edges = List.init (Graph.edge_count g) Fun.id in
  let cert = A.check (A.instance ~prefs w ~capacity ~budget:1.0 ~edges:all_edges) in
  Alcotest.(check bool) "overfull matching is not feasible" false cert.A.feasible;
  Alcotest.(check bool) "void certificate" false (A.certified cert);
  (* a non-empty matching cannot be a prefix of an empty reference *)
  let full = Owp_core.Lic.run w ~capacity in
  let served = BM.edge_ids full in
  if served <> [] then begin
    let cert =
      A.check (A.instance ~prefs ~reference:[] w ~capacity ~budget:1.0 ~edges:served)
    in
    Alcotest.(check bool) "subset witness fails" true
      (cert.A.prefix_of_reference = Some false);
    Alcotest.(check bool) "void without the witness" false (A.certified cert)
  end;
  Alcotest.(check bool) "non-positive budget rejected" true
    (match A.instance ~prefs w ~capacity ~budget:0.0 ~edges:[] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "stack deadline monotone + prefix" `Quick
      test_stack_deadline_monotone;
    Alcotest.test_case "cutoff report fields" `Quick test_stack_cutoff_report;
    Alcotest.test_case "max-rounds = deadline in round lengths" `Quick
      test_max_rounds_is_deadline_in_round_lengths;
    Alcotest.test_case "budget validation" `Quick test_stack_budget_validation;
    Alcotest.test_case "full composition certifies" `Quick test_full_composition_certifies;
    Alcotest.test_case "lid run deadline" `Quick test_lid_run_deadline;
    Alcotest.test_case "pipeline budgeted outcome" `Quick test_pipeline_budgeted_outcome;
    Alcotest.test_case "certificate void cases" `Quick test_certificate_void_cases;
  ]
