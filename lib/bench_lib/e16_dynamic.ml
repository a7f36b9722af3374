(* E16 — dynamic LID (protocol-level churn handling, §7 future work)
   vs re-running static LID from scratch after every event. *)

module Tbl = Owp_util.Tablefmt
module Churn = Owp_core.Churn
module Dyn = Owp_core.Lid_dynamic
module Prng = Owp_util.Prng

let static_rerun prefs active =
  (* static LID on the active-induced problem: inactive nodes get
     capacity 0, so they match nothing and send nothing of consequence *)
  let w = Weights.of_preference prefs in
  let r = Owp_core.Stack.run ~seed:99 w ~capacity:(Churn.capacity prefs active) in
  let _, sat, _ = Churn.measure prefs w active r.Owp_core.Stack.matching in
  (sat, r.Owp_core.Stack.prop_count + r.Owp_core.Stack.rej_count)

let run ~quick =
  let n = if quick then 150 else 500 in
  let nevents = if quick then 30 else 120 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E16: dynamic LID vs static re-run per event (n = %d, %d events, b = 3)" n
           nevents)
      [
        ("family", Tbl.Left);
        ("quiescent", Tbl.Left);
        ("mean S dyn", Tbl.Right);
        ("mean S rerun", Tbl.Right);
        ("S retention", Tbl.Right);
        ("msgs/event dyn", Tbl.Right);
        ("msgs/event rerun", Tbl.Right);
      ]
  in
  let quiescent = ref true and cheaper = ref true in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:16 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
      in
      let g = inst.Workloads.graph in
      let rng = Prng.create 0xE16 in
      let initially_active =
        Array.init (Graph.node_count g) (fun _ -> Prng.bernoulli rng 0.85)
      in
      let events =
        Churn.random_events rng ~universe:g ~initially_active ~steps:nevents
      in
      let r = Dyn.run ~prefs:inst.Workloads.prefs ~initially_active ~events () in
      (* static re-run after each event *)
      let active = Array.copy initially_active in
      let rerun_sats = ref [] and rerun_msgs = ref 0 in
      List.iter
        (fun ev ->
          Churn.apply active ev;
          let s, msgs = static_rerun inst.Workloads.prefs active in
          rerun_sats := s :: !rerun_sats;
          rerun_msgs := !rerun_msgs + msgs)
        events;
      let dyn_sats = List.map (fun s -> s.Dyn.total_satisfaction) r.Dyn.steps in
      let dyn_msgs =
        List.fold_left (fun a s -> a + s.Dyn.messages_for_event) 0 r.Dyn.steps
      in
      let mean xs = Exp_common.mean xs in
      let s_dyn = mean dyn_sats and s_rerun = mean (List.rev !rerun_sats) in
      quiescent := !quiescent && r.Dyn.quiescent;
      cheaper := !cheaper && dyn_msgs < !rerun_msgs;
      Tbl.add_row t
        [
          Workloads.family_name family;
          Exp_common.yn r.Dyn.quiescent;
          Tbl.fcell s_dyn;
          Tbl.fcell s_rerun;
          Tbl.pct (Exp_common.ratio s_dyn s_rerun);
          Tbl.fcell2 (float_of_int dyn_msgs /. float_of_int (List.length events));
          Tbl.fcell2 (float_of_int !rerun_msgs /. float_of_int (List.length events));
        ])
    Workloads.standard_families;
  ( [ t ],
    [
      ("dynamic LID quiesces on every family", !quiescent);
      ("dynamic LID sends fewer messages per event than a static re-run", !cheaper);
    ] )

let exp =
  {
    Exp_common.id = "E16";
    title = "Dynamic LID vs static re-runs";
    paper_ref = "§7 (dynamicity — protocol extension)";
    run;
  }
