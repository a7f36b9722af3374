module Lid = Owp_core.Lid
module Lic = Owp_core.Lic
module Adversary = Owp_simnet.Adversary
module Byz = Owp_check.Byzantine
module Explore = Owp_check.Explore
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng
module Stack = Owp_core.Stack

let violation =
  Alcotest.testable (fun ppf v -> Owp_check.Violation.pp ppf v) ( = )

let random_prefs seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  Preference.random rng g ~quota:(Preference.uniform_quota g quota)

(* the historic byzantine entry point: preference-level quotas and
   weights, seed 0xB12 and the guard on by default *)
let run_byz ?(seed = 0xB12) ?(guard = true) ~adversaries prefs =
  let n = Graph.node_count (Preference.graph prefs) in
  let capacity = Array.init n (Preference.quota prefs) in
  let w = Weights.of_preference prefs in
  Stack.run ~seed ~adversaries ~guard ~prefs w ~capacity

let roles seed prefs spec =
  let n = Graph.node_count (Preference.graph prefs) in
  Adversary.assign (Prng.create (seed * 7919)) ~n (Adversary.parse_spec spec)

(* ---------------- Adversary module ---------------- *)

let test_parse_spec () =
  (match Adversary.parse_spec "liar:0.2" with
  | [ (Adversary.Weight_liar _, f) ] -> Alcotest.(check (float 1e-9)) "frac" 0.2 f
  | _ -> Alcotest.fail "expected one liar entry");
  (match Adversary.parse_spec "equiv:0.1,flood:0.05" with
  | [ (Adversary.Equivocator, _); (Adversary.Flooder _, _) ] -> ()
  | _ -> Alcotest.fail "expected equivocator + flooder");
  let raises s =
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected" s)
      true
      (try
         ignore (Adversary.parse_spec s);
         false
       with Invalid_argument _ -> true)
  in
  List.iter raises [ "nonsense:0.2"; "liar"; "liar:0"; "liar:1.5"; "liar:x" ]

let test_assign () =
  let rng = Prng.create 42 in
  let spec = [ (Adversary.Equivocator, 0.2); (Adversary.Replayer, 0.1) ] in
  let roles = Adversary.assign rng ~n:50 spec in
  let count p = Array.fold_left (fun a r -> if p r then a + 1 else a) 0 roles in
  Alcotest.(check int) "equivocators" 10 (count (( = ) (Some Adversary.Equivocator)));
  Alcotest.(check int) "replayers" 5 (count (( = ) (Some Adversary.Replayer)));
  Alcotest.(check int) "correct remain" 35 (count (( = ) None));
  (* Adversary.count, which the CLI checks a spec against, is assign's
     rule: 10 + 5 here, and 4 of 4 below, where assign raises *)
  Alcotest.(check int) "count" 15 (Adversary.count ~n:50 spec);
  Alcotest.(check int) "count when over-full" 4
    (Adversary.count ~n:4 [ (Adversary.Replayer, 1.0) ]);
  Alcotest.check_raises "no correct node left"
    (Invalid_argument "Adversary.assign: 4 adversaries leave no correct node among 4")
    (fun () ->
      ignore (Adversary.assign (Prng.create 1) ~n:4 [ (Adversary.Replayer, 1.0) ]))

(* ---------------- honest baseline ---------------- *)

let test_honest_run_is_plain_lid () =
  (* with no adversaries the Byzantine driver is plain LID: perceived
     rankings from honest adverts are bit-identical to the true weight
     lists, so the locked edge set is LIC's (Lemma 6) *)
  List.iter
    (fun guard ->
      let prefs = random_prefs 7 40 6 2 in
      let n = Graph.node_count (Preference.graph prefs) in
      let r = run_byz ~guard ~adversaries:(Array.make n None) prefs in
      let w = Weights.of_preference prefs in
      let capacity = Array.init n (Preference.quota prefs) in
      let lic = Lic.run w ~capacity in
      Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
      Alcotest.(check (list int))
        (Printf.sprintf "edge set = LIC (guard:%b)" guard)
        (BM.edge_ids lic) (BM.edge_ids r.Stack.matching);
      Alcotest.(check int) "no quarantines" 0 r.Stack.quarantine_events;
      Alcotest.(check int) "no adversary messages" 0
        (Stack.counter r ~layer:"adversary" "messages");
      Alcotest.(check int) "no quiet rounds" 0
        (Stack.counter r ~layer:"detector" "quiet-rounds");
      Alcotest.(check (list violation)) "damage clean" [] r.Stack.damage)
    [ true; false ]

(* ---------------- the bounded-damage acceptance property ---------------- *)

let test_guarded_bounded_damage_all_models () =
  (* guard on, any single model at 20%: every correct peer terminates,
     the restricted matching is feasible and locally heaviest on the
     correct subgraph, and no correct peer is ever quarantined *)
  List.iter
    (fun model ->
      let spec = Adversary.name model ^ ":0.2" in
      List.iter
        (fun seed ->
          let prefs = random_prefs seed 40 6 2 in
          let adversaries = roles seed prefs spec in
          let r = run_byz ~seed ~guard:true ~adversaries prefs in
          let label fmt = Printf.sprintf "%s seed %d: %s" spec seed fmt in
          Alcotest.(check bool)
            (label "all correct terminated")
            true r.Stack.all_terminated;
          Alcotest.(check (list violation)) (label "damage") [] r.Stack.damage;
          Alcotest.(check int) (label "no false quarantine") 0
            (Stack.counter r ~layer:"guard" "false-quarantines"))
        [ 1; 2; 3 ])
    Adversary.all_defaults

let test_unguarded_violator_starves () =
  (* the liveness-violating adversary never answers proposals; without
     the guard's quiet rounds the correct proposers starve, which is
     exactly the violation E22's baseline column shows *)
  let starved = ref false in
  for seed = 1 to 5 do
    let prefs = random_prefs seed 30 6 2 in
    let adversaries = roles seed prefs "violator:0.2" in
    let r = run_byz ~seed ~guard:false ~adversaries prefs in
    if not r.Stack.all_terminated then begin
      starved := true;
      Alcotest.(check bool)
        "damage checker reports the starvation" false (r.Stack.damage = [])
    end
  done;
  Alcotest.(check bool) "some unguarded run starves" true !starved

let test_guarded_liar_caught_at_bootstrap () =
  let prefs = random_prefs 11 40 6 2 in
  let adversaries = roles 11 prefs "liar:0.2" in
  let r = run_byz ~seed:11 ~guard:true ~adversaries prefs in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check bool) "liars quarantined" true (r.Stack.byz_quarantined > 0);
  Alcotest.(check int) "no slot wasted on a liar" 0 r.Stack.wasted_slots;
  Alcotest.(check bool) "overclaim offences recorded" true
    (List.mem_assoc "overclaim" r.Stack.offence_counts);
  Alcotest.(check int) "precision: no correct peer quarantined" 0
    (Stack.counter r ~layer:"guard" "false-quarantines")

let test_unguarded_liar_wastes_slots () =
  (* without advert vetting the inflated halves jump the victims'
     queues, and correct peers lock liars *)
  let wasted = ref 0 in
  for seed = 1 to 5 do
    let prefs = random_prefs seed 30 6 2 in
    let adversaries = roles seed prefs "liar:0.2" in
    let r = run_byz ~seed ~guard:false ~adversaries prefs in
    wasted := !wasted + r.Stack.wasted_slots
  done;
  Alcotest.(check bool) "liars captured slots somewhere" true (!wasted > 0)

let test_equivocator_locally_undetectable () =
  (* the documented limit: every equivocator link interaction is legal,
     so the guard records nothing — damage stays bounded anyway *)
  let prefs = random_prefs 13 40 6 2 in
  let adversaries = roles 13 prefs "equivocator:0.2" in
  let r = run_byz ~seed:13 ~guard:true ~adversaries prefs in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check int) "no offence recorded" 0 (List.length r.Stack.offence_counts);
  Alcotest.(check int) "no quarantine" 0 r.Stack.quarantine_events;
  Alcotest.(check (list violation)) "damage clean" [] r.Stack.damage

let test_flooder_quarantined_and_contained () =
  let prefs = random_prefs 17 40 6 2 in
  let adversaries = roles 17 prefs "flooder:0.15" in
  let guarded = run_byz ~seed:17 ~guard:true ~adversaries prefs in
  Alcotest.(check bool) "flooders quarantined" true (guarded.Stack.byz_quarantined > 0);
  Alcotest.(check bool) "duplicate props recorded" true
    (List.mem_assoc "duplicate-prop" guarded.Stack.offence_counts);
  Alcotest.(check bool) "terminates despite spam" true
    guarded.Stack.all_terminated;
  Alcotest.(check int) "precision" 0
    (Stack.counter guarded ~layer:"guard" "false-quarantines");
  Alcotest.(check (list violation)) "damage clean" [] guarded.Stack.damage

let test_replayer_quarantined () =
  let prefs = random_prefs 19 40 6 2 in
  let adversaries = roles 19 prefs "replayer:0.2" in
  let r = run_byz ~seed:19 ~guard:true ~adversaries prefs in
  Alcotest.(check bool) "replayers quarantined" true (r.Stack.byz_quarantined > 0);
  Alcotest.(check bool) "replay offences recorded" true
    (List.exists
       (fun (k, _) ->
         List.mem k [ "duplicate-prop"; "duplicate-rej"; "stale-epoch" ])
       r.Stack.offence_counts);
  Alcotest.(check int) "precision" 0
    (Stack.counter r ~layer:"guard" "false-quarantines")

let test_determinism () =
  let prefs = random_prefs 23 30 6 2 in
  let adversaries = roles 23 prefs "replayer:0.1,flooder:0.1" in
  let a = run_byz ~seed:5 ~adversaries prefs in
  let b = run_byz ~seed:5 ~adversaries prefs in
  Alcotest.(check (list int)) "same matching" (BM.edge_ids a.Stack.matching)
    (BM.edge_ids b.Stack.matching);
  Alcotest.(check int) "same deliveries" a.Stack.delivered b.Stack.delivered;
  Alcotest.(check int) "same quarantines" a.Stack.quarantine_events
    b.Stack.quarantine_events

let test_satisfaction_accounting () =
  let prefs = random_prefs 29 40 6 2 in
  let n = Graph.node_count (Preference.graph prefs) in
  let adversaries = roles 29 prefs "liar:0.2" in
  let correct = Array.map (( = ) None) adversaries in
  let r = run_byz ~seed:29 ~guard:true ~adversaries prefs in
  let retained = Stack.satisfaction_of_correct prefs r in
  let reference = Stack.reference_satisfaction prefs ~correct in
  Alcotest.(check bool) "retained nonnegative" true (retained >= 0.0);
  Alcotest.(check bool) "reference nonnegative" true (reference > 0.0);
  (* the honest reference over all nodes equals the plain total *)
  let all_correct = Array.make n true in
  let honest = run_byz ~guard:true ~adversaries:(Array.make n None) prefs in
  Alcotest.(check (float 1e-9))
    "reference on all-correct = LIC satisfaction"
    (Stack.reference_satisfaction prefs ~correct:all_correct)
    (Stack.satisfaction_of_correct prefs honest)

(* ---------------- bounded-damage checker unit tests ---------------- *)

let path3 () =
  (* 0 -1- 1 -2- 2 with edge ids 0, 1 *)
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2) ] in
  Weights.of_array g [| 2.0; 1.0 |]

let base w =
  {
    Byz.weights = w;
    capacity = [| 1; 1; 1 |];
    correct = [| true; true; true |];
    edges = [];
    consumed = [| 0; 0; 0 |];
    unterminated = [];
    overclaimed = [];
  }

let has ~checker vs = List.exists (fun v -> v.Owp_check.Violation.checker = checker) vs

let test_checker_termination () =
  let w = path3 () in
  let vs = Byz.check { (base w) with unterminated = [ 1 ] } in
  Alcotest.(check bool) "termination violation" true
    (has ~checker:"byzantine-termination" vs)

let test_checker_feasibility () =
  let w = path3 () in
  let vs = Byz.check { (base w) with edges = [ 0 ]; consumed = [| 2; 1; 0 |] } in
  Alcotest.(check bool) "overfull node flagged" true
    (has ~checker:"byzantine-feasibility" vs)

let test_checker_blocking_pair_and_exemption () =
  let w = path3 () in
  (* all correct, nothing matched, everyone has residual: edge 0 is a
     genuine blocking pair *)
  let vs = Byz.check (base w) in
  Alcotest.(check bool) "blocking pair on idle instance" true
    (has ~checker:"byzantine-blocking-pair" vs);
  (* now node 2 is Byzantine and node 1's only slot was burned on it:
     the same unmatched edge 0 is exempt at node 1 (Lemma 6 relativized:
     the wasted slot is allowed damage, not a blocking pair) *)
  let vs =
    Byz.check
      {
        (base w) with
        correct = [| true; true; false |];
        consumed = [| 0; 1; 0 |];
      }
  in
  Alcotest.(check bool) "wasted slot is exempt" false
    (has ~checker:"byzantine-blocking-pair" vs);
  (* but a correct-correct lock lighter than the skipped edge is not:
     matching edge 1 while leaving the heavier edge 0 unmatched blocks *)
  let vs =
    Byz.check { (base w) with edges = [ 1 ]; consumed = [| 0; 1; 1 |] }
  in
  Alcotest.(check bool) "lighter correct lock still challenged" true
    (has ~checker:"byzantine-blocking-pair" vs)

let test_checker_restriction () =
  let w = path3 () in
  let vs =
    Byz.check
      {
        (base w) with
        correct = [| true; true; false |];
        edges = [ 1 ];
        consumed = [| 0; 1; 1 |];
      }
  in
  Alcotest.(check bool) "byzantine endpoint in matching flagged" true
    (has ~checker:"byzantine-restriction" vs)

(* ---------------- exhaustive verification ---------------- *)

let test_exhaustive_guarded_clean () =
  (* n <= 4, one Byzantine node, full injection repertoire: the guarded
     protocol keeps the bounded-damage certificate on every schedule *)
  let square = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let prefs =
    Preference.random (Prng.create 3) square
      ~quota:(Preference.uniform_quota square 1)
  in
  for byz = 0 to 3 do
    let verdict = Stack.verify_exhaustively ~guard:true ~budget:2 ~byz prefs in
    Alcotest.(check (list violation))
      (Printf.sprintf "byz=%d clean" byz)
      [] verdict.Explore.violations
  done

let test_exhaustive_unguarded_starves () =
  (* same instance, guard off: the adversary that accepts a proposal and
     then stays silent leaves correct nodes stuck — the explorer finds
     the deadlock *)
  let pair = Graph.of_edge_list 2 [ (0, 1) ] in
  let prefs =
    Preference.random (Prng.create 1) pair ~quota:(Preference.uniform_quota pair 1)
  in
  let verdict = Stack.verify_exhaustively ~guard:false ~budget:1 ~byz:1 prefs in
  Alcotest.(check bool) "termination violations found" true
    (List.exists
       (fun v ->
         List.mem v.Owp_check.Violation.checker
           [ "explore-termination"; "byzantine-termination" ])
       verdict.Explore.violations)

(* ---------------- adversary mixes ---------------- *)

(* the violator's startup PROP goes to a stranger, and a replayer that
   receives it answers: its claim for a non-edge is the public bound,
   not an exception.  The instance and seed of `owp run --byzantine
   equivocator:0.1,flooder:0.1,replayer:0.1,violator:0.1 --nodes 200
   --quota 3 --seed 5`; the guarded run certifies, the unguarded one
   starves peers *)
let test_replayer_answers_stranger () =
  let module W = Owp_bench.Workloads in
  let module RC = Owp_core.Run_config in
  let inst =
    W.make ~seed:5 ~family:(W.Gnm_avg_deg 8.0) ~pref_model:W.Random_prefs ~n:200 ~quota:3
  in
  List.iter
    (fun guard ->
      let cfg =
        RC.make ~engine:RC.Lid ~seed:5
          ~byzantine:"equivocator:0.1,flooder:0.1,replayer:0.1,violator:0.1" ~guard ()
      in
      let out = Owp_core.Pipeline.run_config cfg inst.W.prefs in
      Alcotest.(check bool)
        (Printf.sprintf "guard %b: passes iff guarded" guard)
        guard
        (List.is_empty out.Owp_core.Pipeline.failures))
    [ false; true ]

(* every node a random role among the five models or correct (node 0
   always correct), guard on or off: Stack.run returns a report *)
let prop_adversary_mixes_never_raise =
  let models =
    [|
      Adversary.Weight_liar 0.5;
      Adversary.Equivocator;
      Adversary.Flooder 2;
      Adversary.Replayer;
      Adversary.State_violator;
    |]
  in
  QCheck2.Test.make ~count:200 ~name:"Stack.run never raises on adversary mixes"
    ~print:(fun (seed, n, guard) -> Printf.sprintf "seed %d, n %d, guard %b" seed n guard)
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 6 30) bool)
    (fun (seed, n, guard) ->
      let prefs = random_prefs seed n 4 2 in
      let rng = Prng.create seed in
      let adversaries =
        Array.init n (fun i ->
            let k = Prng.int rng 8 in
            if i = 0 || k >= Array.length models then None else Some models.(k))
      in
      match run_byz ~seed ~guard ~adversaries prefs with
      | (_ : Stack.report) -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "parse_spec" `Quick test_parse_spec;
    Alcotest.test_case "assign roles" `Quick test_assign;
    Alcotest.test_case "honest run = plain LID" `Quick test_honest_run_is_plain_lid;
    Alcotest.test_case "guarded bounded damage, all models @20%" `Quick
      test_guarded_bounded_damage_all_models;
    Alcotest.test_case "unguarded violator starves peers" `Quick
      test_unguarded_violator_starves;
    Alcotest.test_case "liar caught at bootstrap" `Quick
      test_guarded_liar_caught_at_bootstrap;
    Alcotest.test_case "unguarded liar wastes slots" `Quick
      test_unguarded_liar_wastes_slots;
    Alcotest.test_case "equivocator locally undetectable" `Quick
      test_equivocator_locally_undetectable;
    Alcotest.test_case "flooder quarantined + contained" `Quick
      test_flooder_quarantined_and_contained;
    Alcotest.test_case "replayer quarantined" `Quick test_replayer_quarantined;
    Alcotest.test_case "deterministic runs" `Quick test_determinism;
    Alcotest.test_case "satisfaction accounting" `Quick test_satisfaction_accounting;
    Alcotest.test_case "checker: termination" `Quick test_checker_termination;
    Alcotest.test_case "checker: feasibility" `Quick test_checker_feasibility;
    Alcotest.test_case "checker: relativized blocking pair" `Quick
      test_checker_blocking_pair_and_exemption;
    Alcotest.test_case "checker: restriction" `Quick test_checker_restriction;
    Alcotest.test_case "exhaustive guarded n=4" `Quick test_exhaustive_guarded_clean;
    Alcotest.test_case "exhaustive unguarded deadlock" `Quick
      test_exhaustive_unguarded_starves;
    Alcotest.test_case "replayer answers a stranger's PROP" `Quick
      test_replayer_answers_stranger;
    QCheck_alcotest.to_alcotest prop_adversary_mixes_never_raise;
  ]
