(* Last line of defence: randomized invariants that should hold for any
   execution of the simulator and the protocols. *)

module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng
module Sim = Owp_simnet.Simnet

let prop_simnet_conservation =
  (* delivered + dropped + still-queued = sent; with a drain to
     quiescence and no faults: delivered = sent *)
  QCheck2.Test.make ~name:"simnet conserves messages" ~count:50
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 200))
    (fun (seed, k) ->
      let net = Sim.create ~seed ~nodes:4 ~delay:(Sim.Uniform (0.1, 2.0)) () in
      Sim.set_handler net (fun ~src:_ ~dst:_ _ -> ());
      let rng = Prng.create seed in
      for _ = 1 to k do
        Sim.send net ~src:(Prng.int rng 4) ~dst:(Prng.int rng 4) ()
      done;
      Sim.run net;
      Sim.messages_delivered net = k && Sim.messages_dropped net = 0)

let prop_simnet_drop_accounting =
  QCheck2.Test.make ~name:"simnet drop accounting sums up" ~count:50
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 500))
    (fun (seed, k) ->
      let faults = Sim.faults ~drop:0.3 () in
      let net = Sim.create ~seed ~faults ~nodes:2 ~delay:Sim.Unit () in
      Sim.set_handler net (fun ~src:_ ~dst:_ _ -> ());
      for _ = 1 to k do
        Sim.send net ~src:0 ~dst:1 ()
      done;
      Sim.run net;
      Sim.messages_delivered net + Sim.messages_dropped net = k)

let prop_virtual_time_monotone =
  QCheck2.Test.make ~name:"virtual time is monotone under stepping" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let net = Sim.create ~seed ~nodes:3 ~delay:(Sim.Exponential 1.0) () in
      let last = ref 0.0 and ok = ref true in
      Sim.set_handler net (fun ~src ~dst _ ->
          if Sim.now net < !last then ok := false;
          last := Sim.now net;
          if Sim.now net < 50.0 then Sim.send net ~src:dst ~dst:src ());
      Sim.send net ~src:0 ~dst:1 ();
      Sim.send net ~src:1 ~dst:2 ();
      Sim.run net;
      !ok)

let prop_churn_leave_disruption_bounded =
  (* a single leave can remove at most quota(v) matched edges *)
  QCheck2.Test.make ~name:"leave removes at most quota edges" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:30 ~m:90 in
      let quota = 1 + Prng.int rng 4 in
      let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
      let active = Array.make 30 true in
      let victim = Prng.int rng 30 in
      let steps =
        Owp_core.Churn.simulate ~prefs ~initially_active:active
          ~events:[ Owp_core.Churn.Leave victim ] ~repair:Owp_core.Churn.Incremental
      in
      (List.hd steps).Owp_core.Churn.removed <= quota)

let prop_lid_locked_edges_heavier_than_free =
  (* Lemma 4's observable consequence: at every saturated node, each
     selected edge beats every unselected incident edge whose other
     endpoint is unsaturated *)
  QCheck2.Test.make ~name:"saturated nodes hold only locally justified edges" ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:25 ~m:70 in
      let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
      let w = Weights.of_preference prefs in
      let capacity = Array.init 25 (Preference.quota prefs) in
      let r = Owp_core.Stack.run ~seed w ~capacity in
      let m = r.Owp_core.Stack.matching in
      let ok = ref true in
      Graph.iter_edges g (fun eid u v ->
          if not (BM.mem m eid) then begin
            (* if one endpoint is unsaturated, the other must be
               saturated with edges all heavier than eid *)
            let check_sat x =
              Graph.iter_neighbors g x (fun _ e ->
                  if BM.mem m e && Weights.heavier w eid e then ok := false)
            in
            if BM.residual m u > 0 && BM.residual m v > 0 then ok := false
            else begin
              if BM.residual m u > 0 then check_sat v;
              if BM.residual m v > 0 then check_sat u
            end
          end);
      !ok)

let prop_weights_sum_equals_static_satisfaction =
  (* Lemma 2's bookkeeping: total eq. 9 weight of a matching equals the
     total modified (static) satisfaction of its connection lists *)
  QCheck2.Test.make ~name:"matching weight = total static satisfaction" ~count:50
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n:20 ~m:60 in
      let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 3) in
      let w = Weights.of_preference prefs in
      let capacity = Array.init 20 (Preference.quota prefs) in
      let m = Owp_core.Lic.run w ~capacity in
      let total_w = BM.weight m w in
      let total_static =
        Preference.total_static_satisfaction prefs (BM.connection_lists m)
      in
      Float.abs (total_w -. total_static) < 1e-9)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_simnet_conservation;
    QCheck_alcotest.to_alcotest prop_simnet_drop_accounting;
    QCheck_alcotest.to_alcotest prop_virtual_time_monotone;
    QCheck_alcotest.to_alcotest prop_churn_leave_disruption_bounded;
    QCheck_alcotest.to_alcotest prop_lid_locked_edges_heavier_than_free;
    QCheck_alcotest.to_alcotest prop_weights_sum_equals_static_satisfaction;
  ]
