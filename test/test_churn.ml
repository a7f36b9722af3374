module Churn = Owp_core.Churn
module Dyn = Owp_core.Lid_dynamic
module Prng = Owp_util.Prng

let event_name = function
  | Churn.Join v -> Printf.sprintf "join %d" v
  | Churn.Leave v -> Printf.sprintf "leave %d" v

let setup seed n =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(3 * n) in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
  (g, prefs)

let test_random_events_consistency () =
  let g, _ = setup 1 40 in
  let rng = Prng.create 2 in
  let active = Array.make 40 true in
  let events = Churn.random_events rng ~universe:g ~initially_active:active ~steps:60 in
  (* replay: leaves only target active peers, joins only inactive ones *)
  let state = Array.copy active in
  List.iter
    (function
      | Churn.Leave v ->
          Alcotest.(check bool) "leave active" true state.(v);
          state.(v) <- false
      | Churn.Join v ->
          Alcotest.(check bool) "join inactive" false state.(v);
          state.(v) <- true)
    events

let test_simulate_step_per_event () =
  let g, prefs = setup 3 30 in
  let rng = Prng.create 4 in
  let active = Array.make 30 true in
  let events = Churn.random_events rng ~universe:g ~initially_active:active ~steps:25 in
  let steps =
    Churn.simulate ~prefs ~initially_active:active ~events ~repair:Churn.Incremental
  in
  Alcotest.(check int) "one step per event" (List.length events) (List.length steps);
  List.iter
    (fun s ->
      Alcotest.(check bool) "satisfaction non-negative" true (s.Churn.total_satisfaction >= 0.0);
      Alcotest.(check bool) "weight non-negative" true (s.Churn.weight >= 0.0);
      Alcotest.(check bool) "counts non-negative" true (s.Churn.added >= 0 && s.Churn.removed >= 0);
      Alcotest.(check bool) "active in range" true
        (s.Churn.active_nodes >= 0 && s.Churn.active_nodes <= 30))
    steps

let test_rebuild_matches_fresh_greedy () =
  (* after every event, the full-rebuild matching must weigh exactly as
     much as a from-scratch global greedy restricted to active peers *)
  let g, prefs = setup 5 40 in
  let rng = Prng.create 6 in
  let active = Array.init 40 (fun _ -> Prng.bernoulli rng 0.8) in
  let events = Churn.random_events rng ~universe:g ~initially_active:active ~steps:30 in
  let full = Churn.simulate ~prefs ~initially_active:active ~events ~repair:Churn.Full_rebuild in
  let w = Weights.of_preference prefs in
  let capacity = Array.init 40 (Preference.quota prefs) in
  let state = Array.copy active in
  List.iter2
    (fun event step ->
      Churn.apply state event;
      let fresh =
        Owp_matching.Greedy.run_restricted w ~capacity ~allowed:(fun eid ->
            let u, v = Graph.edge_endpoints g eid in
            state.(u) && state.(v))
      in
      Alcotest.(check (float 1e-9)) "rebuild = fresh greedy"
        (Owp_matching.Bmatching.weight fresh w)
        step.Churn.weight)
    events full

let test_leave_inactive_rejected () =
  let _, prefs = setup 7 10 in
  let active = Array.make 10 false in
  active.(0) <- true;
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Churn.simulate ~prefs ~initially_active:active ~events:[ Churn.Leave 5 ]
            ~repair:Churn.Incremental);
       false
     with Invalid_argument _ -> true)

let test_join_active_rejected () =
  let _, prefs = setup 8 10 in
  let active = Array.make 10 true in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Churn.simulate ~prefs ~initially_active:active ~events:[ Churn.Join 5 ]
            ~repair:Churn.Incremental);
       false
     with Invalid_argument _ -> true)

let test_apply_rejects_malformed () =
  let active = [| true; false; true |] in
  List.iter
    (fun (msg, ev) ->
      Alcotest.check_raises (event_name ev) (Invalid_argument msg) (fun () ->
          Churn.apply active ev))
    [
      ("Churn.apply: peer id out of range", Churn.Join 3);
      ("Churn.apply: peer id out of range", Churn.Leave (-1));
      ("Churn.apply: leaving inactive peer", Churn.Leave 1);
      ("Churn.apply: joining active peer", Churn.Join 0);
    ];
  Alcotest.(check (array bool)) "a rejected event changes nothing" [| true; false; true |]
    active;
  Churn.apply active (Churn.Join 1);
  Churn.apply active (Churn.Leave 0);
  Alcotest.(check (array bool)) "valid events flip one flag" [| false; true; true |] active

let test_leave_removes_connections () =
  let g = Gen.star 5 in
  let prefs = Preference.random (Prng.create 9) g ~quota:(Preference.uniform_quota g 4) in
  let active = Array.make 5 true in
  let steps =
    Churn.simulate ~prefs ~initially_active:active ~events:[ Churn.Leave 0 ]
      ~repair:Churn.Incremental
  in
  let s = List.hd steps in
  (* the hub left: no edges can survive in a star *)
  Alcotest.(check (float 1e-9)) "no weight left" 0.0 s.Churn.weight;
  Alcotest.(check int) "hub's edges removed" 4 s.Churn.removed

let test_join_recovers () =
  let g = Gen.star 5 in
  let prefs = Preference.random (Prng.create 10) g ~quota:(Preference.uniform_quota g 4) in
  let active = Array.make 5 true in
  let steps =
    Churn.simulate ~prefs ~initially_active:active
      ~events:[ Churn.Leave 0; Churn.Join 0 ] ~repair:Churn.Incremental
  in
  let after_rejoin = List.nth steps 1 in
  Alcotest.(check int) "hub re-matched fully" 4 after_rejoin.Churn.added;
  Alcotest.(check bool) "satisfaction restored" true (after_rejoin.Churn.total_satisfaction > 0.0)

(* ---------- one pinned trace ---------- *)

(* One seeded churn trace (n = 60, 25 events), every step's figures
   captured before the repair moved onto the flat matching: a change to
   the repair, the eq. 1 / eq. 9 measurement or the event PRNG stream
   shows here.  Rows are (active nodes, added, removed, satisfaction,
   weight); dynamic LID rows carry the event's messages instead of the
   edge counts.  Floats compare with [Float.equal]. *)
let pinned_events =
  Churn.
    [
      Join 21; Leave 6; Leave 42; Join 13; Leave 17; Join 30; Join 37; Join 53; Leave 20;
      Join 55; Join 17; Leave 32; Join 20; Join 42; Leave 12; Join 1; Leave 54; Leave 56;
      Join 57; Join 12; Leave 23; Leave 4; Join 6; Join 32; Join 4
    ]

let pinned_incremental =
  [
    (52, 1, 0, 0x1.4183bb246c755p+5, 0x1.0c31931931932p+5);
    (51, 1, 3, 0x1.343f76e028311p+5, 0x1.0064c64c64c65p+5);
    (50, 2, 3, 0x1.2ba50d398dc77p+5, 0x1.f0b12b12b12b1p+4);
    (51, 2, 0, 0x1.3360c8f549833p+5, 0x1.fd461d1c004bbp+4);
    (50, 0, 3, 0x1.236679504f338p+5, 0x1.e69b727155a0fp+4);
    (51, 1, 0, 0x1.26bbcea5a488ep+5, 0x1.eb7f00aa392f3p+4);
    (52, 3, 0, 0x1.36690f4b233dep+5, 0x1.0162690f4b235p+5);
    (53, 2, 0, 0x1.3f35dc17f00abp+5, 0x1.07df90e1c84b1p+5);
    (52, 0, 2, 0x1.31a7a33461d1dp+5, 0x1.fadb938aad081p+4);
    (53, 2, 0, 0x1.3b635ef01d8d8p+5, 0x1.04b20e099ac85p+5);
    (54, 3, 0, 0x1.4bf197d3abc66p+5, 0x1.104046ed29012p+5);
    (53, 2, 3, 0x1.459421fc4e50ap+5, 0x1.0a1bb4a4046efp+5);
    (54, 2, 0, 0x1.53225adfdc898p+5, 0x1.148d7bc07636p+5);
    (55, 2, 0, 0x1.5d3ecca6f8fb4p+5, 0x1.1c1bb4a4046eep+5);
    (54, 1, 3, 0x1.52225adfdc897p+5, 0x1.12821b0a6ad55p+5);
    (55, 1, 0, 0x1.5677b03531decp+5, 0x1.162cc5b5158p+5);
    (54, 2, 3, 0x1.4e9351ef4d808p+5, 0x1.0db61e4a9ed8ap+5);
    (53, 1, 3, 0x1.457d6090378f2p+5, 0x1.07d3601ebc1a7p+5);
    (54, 1, 0, 0x1.49ef27aca9563p+5, 0x1.0a7e0ac966c51p+5);
    (55, 3, 0, 0x1.5b16fa29d128ap+5, 0x1.17d3601ebc1a6p+5);
    (54, 1, 3, 0x1.4dc1a4d47bd36p+5, 0x1.0cfb329be3ecep+5);
    (53, 2, 2, 0x1.4999d2575400ep+5, 0x1.08785a6e6114bp+5);
    (54, 1, 0, 0x1.4fa5330d5f61ap+5, 0x1.0cbc9eb2a558fp+5);
    (55, 3, 0, 0x1.6023faf9de297p+5, 0x1.19896b7f7225ap+5);
    (56, 0, 0, 0x1.6023faf9de297p+5, 0x1.19896b7f7225ap+5);
  ]

let pinned_rebuild =
  [
    (52, 3, 2, 0x1.40df453a2516bp+5, 0x1.0ca463005e919p+5);
    (51, 2, 3, 0x1.39621d67a7eeep+5, 0x1.0465cf171ffdap+5);
    (50, 3, 4, 0x1.321d091662daap+5, 0x1.fb5de752d2447p+4);
    (51, 3, 2, 0x1.3842b7142b715p+5, 0x1.0274f4668c3a3p+5);
    (50, 0, 3, 0x1.27b47e309d387p+5, 0x1.edcd7705fc029p+4);
    (51, 2, 0, 0x1.3026454d0eff8p+5, 0x1.f9cd7705fc029p+4);
    (52, 2, 0, 0x1.3bed61bed61cp+5, 0x1.063c10d85356ap+5);
    (53, 1, 0, 0x1.40d0eff7b9aa4p+5, 0x1.0a3c10d85356ap+5);
    (52, 0, 2, 0x1.32d0eff7b9aa4p+5, 0x1.ff949377c31f1p+4);
    (53, 3, 1, 0x1.3ca70be51b692p+5, 0x1.085c2164ff0a2p+5);
    (54, 3, 0, 0x1.4d3544c8a9a21p+5, 0x1.13ea5a488d42fp+5);
    (53, 2, 4, 0x1.41c10d85356abp+5, 0x1.0b4e5087f1394p+5);
    (54, 2, 0, 0x1.4fc10d85356abp+5, 0x1.15c017a463006p+5);
    (55, 5, 3, 0x1.5a29e4129e413p+5, 0x1.1e17dd20bac5ep+5);
    (54, 1, 3, 0x1.4e9bab2f10085p+5, 0x1.14c287cb65709p+5);
    (55, 3, 2, 0x1.537f3967f3968p+5, 0x1.196d3276101b3p+5);
    (54, 2, 3, 0x1.4cd96f0b4dcc2p+5, 0x1.126e028310eb4p+5);
    (53, 0, 1, 0x1.478419b5f876cp+5, 0x1.0dc357d866409p+5);
    (54, 1, 0, 0x1.4bf5e0d26a3dep+5, 0x1.106e028310eb3p+5);
    (55, 4, 2, 0x1.573474bba8d1dp+5, 0x1.19e579fa8862bp+5);
    (54, 1, 4, 0x1.49df1f66537c6p+5, 0x1.0f5e918c017a4p+5);
    (53, 2, 2, 0x1.45b74ce92ba9fp+5, 0x1.0adbb95e7ea21p+5);
    (54, 3, 2, 0x1.4e0e4258829f7p+5, 0x1.1255a0fcf889bp+5);
    (55, 3, 2, 0x1.536a1815de753p+5, 0x1.18a545f7482e9p+5);
    (56, 2, 2, 0x1.5791ea930647bp+5, 0x1.1d281e24cb06cp+5);
  ]

let pinned_dynamic =
  [
    (52, 24, 0x1.3d96cae10b28p+5, 0x1.0955b3e6e156dp+5);
    (51, 43, 0x1.3052869cc6e3cp+5, 0x1.fb11ce342914p+4);
    (50, 37, 0x1.27b81cf62c7a2p+5, 0x1.eaf96cae10b29p+4);
    (51, 17, 0x1.2f35c92e073dap+5, 0x1.f78e5eb75fd31p+4);
    (50, 36, 0x1.1f3b79890cedfp+5, 0x1.e0e3b40cb5287p+4);
    (51, 8, 0x1.2290cede62434p+5, 0x1.e5c7424598b6bp+4);
    (52, 16, 0x1.32p+5, 0x1.fd0d13b9f5cdfp+4);
    (53, 13, 0x1.3accccccccccep+5, 0x1.0503b1af780edp+5);
    (52, 14, 0x1.2d3e93e93e93fp+5, 0x1.f523d5260c8f7p+4);
    (53, 23, 0x1.3c322a6877fbep+5, 0x1.05e73fe85b9d1p+5);
    (54, 16, 0x1.4cc0634c0634dp+5, 0x1.117578cbe9d5fp+5);
    (53, 27, 0x1.4701675c4738dp+5, 0x1.0b44b5bfb912fp+5);
    (54, 10, 0x1.548fa03fd571cp+5, 0x1.15b67cdc2adap+5);
    (55, 28, 0x1.5eac1206f1e38p+5, 0x1.1d44b5bfb912ep+5);
    (54, 30, 0x1.538fa03fd571bp+5, 0x1.13ab1c261f795p+5);
    (55, 8, 0x1.57e4f5952ac7p+5, 0x1.1755c6d0ca24p+5);
    (54, 47, 0x1.4e44db938aadp+5, 0x1.0dce0e55426b7p+5);
    (53, 28, 0x1.4703077648d8ep+5, 0x1.077b2926ef865p+5);
    (54, 8, 0x1.4b74ce92ba9ffp+5, 0x1.0a25d3d19a31p+5);
    (55, 19, 0x1.55adb220f3839p+5, 0x1.1225d3d19a30fp+5);
    (54, 26, 0x1.4c585ccb9e2e3p+5, 0x1.098689dcfae7p+5);
    (53, 32, 0x1.48308a4e765bcp+5, 0x1.0503b1af780edp+5);
    (54, 26, 0x1.4e3beb0481bc7p+5, 0x1.0947f5f3bc531p+5);
    (55, 20, 0x1.5ebab2f100846p+5, 0x1.1614c2c0891fdp+5);
    (56, 12, 0x1.5ebab2f100846p+5, 0x1.1614c2c0891fdp+5);
  ]

let pinned_trace () =
  let rng = Prng.create 0x60 in
  let g = Gen.gnm rng ~n:60 ~m:180 in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 3) in
  let initially_active = Array.init 60 (fun _ -> Prng.bernoulli rng 0.8) in
  (prefs, initially_active, Churn.random_events rng ~universe:g ~initially_active ~steps:25)

(* rows as (integer fields, satisfaction, weight) *)
let check_rows what pinned got =
  Alcotest.(check int) (what ^ ": steps") (List.length pinned) (List.length got);
  List.iteri
    (fun k ((ints, sat, w), (ints', sat', w')) ->
      let at = Printf.sprintf "%s step %d" what k in
      Alcotest.(check (list int)) at ints ints';
      if not (Float.equal sat sat' && Float.equal w w') then
        Alcotest.failf "%s: expected (%h, %h), got (%h, %h)" at sat w sat' w')
    (List.combine pinned got)

let test_pinned_trace () =
  let prefs, initially_active, events = pinned_trace () in
  Alcotest.(check (list string))
    "events" (List.map event_name pinned_events) (List.map event_name events);
  List.iter
    (fun (what, repair, pinned) ->
      check_rows what
        (List.map (fun (a, b, c, s, w) -> ([ a; b; c ], s, w)) pinned)
        (List.map
           (fun s ->
             ( [ s.Churn.active_nodes; s.Churn.added; s.Churn.removed ],
               s.Churn.total_satisfaction,
               s.Churn.weight ))
           (Churn.simulate ~prefs ~initially_active ~events ~repair)))
    [
      ("incremental", Churn.Incremental, pinned_incremental);
      ("rebuild", Churn.Full_rebuild, pinned_rebuild);
    ]

let test_pinned_dynamic () =
  let prefs, initially_active, events = pinned_trace () in
  let r = Dyn.run ~prefs ~initially_active ~events () in
  Alcotest.(check (list int))
    "bootstrap and total messages" [ 347; 915 ]
    [ r.Dyn.bootstrap_messages; r.Dyn.total_messages ];
  Alcotest.(check bool) "quiescent" true r.Dyn.quiescent;
  check_rows "dynamic"
    (List.map (fun (a, m, s, w) -> ([ a; m ], s, w)) pinned_dynamic)
    (List.map
       (fun s ->
         ( [ s.Dyn.active_nodes; s.Dyn.messages_for_event ],
           s.Dyn.total_satisfaction,
           s.Dyn.weight ))
       r.Dyn.steps)

let suite =
  [
    Alcotest.test_case "random events consistency" `Quick test_random_events_consistency;
    Alcotest.test_case "one step per event" `Quick test_simulate_step_per_event;
    Alcotest.test_case "rebuild matches fresh greedy" `Quick test_rebuild_matches_fresh_greedy;
    Alcotest.test_case "leave inactive rejected" `Quick test_leave_inactive_rejected;
    Alcotest.test_case "join active rejected" `Quick test_join_active_rejected;
    Alcotest.test_case "apply rejects malformed events" `Quick test_apply_rejects_malformed;
    Alcotest.test_case "leave removes connections" `Quick test_leave_removes_connections;
    Alcotest.test_case "join recovers" `Quick test_join_recovers;
    Alcotest.test_case "pinned trace" `Quick test_pinned_trace;
    Alcotest.test_case "pinned trace: dynamic LID" `Quick test_pinned_dynamic;
  ]
