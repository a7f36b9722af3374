(* E10 — dynamicity ablation (§7 future work): incremental greedy
   repair vs full rebuild under churn.  Reported: average satisfaction
   relative to the rebuild optimum, and disruption (matched edges
   changed per event). *)

module Tbl = Owp_util.Tablefmt
module Churn = Owp_core.Churn

let aggregate steps =
  let sats = List.map (fun s -> s.Churn.total_satisfaction) steps in
  let changed = List.map (fun s -> float_of_int (s.Churn.added + s.Churn.removed)) steps in
  (Exp_common.mean sats, Exp_common.mean changed)

let run ~quick =
  let n = if quick then 200 else 1000 in
  let steps = if quick then 60 else 400 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E10: churn repair — incremental vs full rebuild (n = %d universe, %d events, b = 3)"
           n steps)
      [
        ("family", Tbl.Left);
        ("mean S incr", Tbl.Right);
        ("mean S rebuild", Tbl.Right);
        ("S retention", Tbl.Right);
        ("disruption incr", Tbl.Right);
        ("disruption rebuild", Tbl.Right);
      ]
  in
  let retains = ref true and calmer = ref true in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:99 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
      in
      let rng = Owp_util.Prng.create 4242 in
      let initially_active =
        Array.init (Graph.node_count inst.graph) (fun _ ->
            Owp_util.Prng.bernoulli rng 0.8)
      in
      let events =
        Churn.random_events rng ~universe:inst.graph ~initially_active ~steps
      in
      let incr_steps =
        Churn.simulate ~prefs:inst.prefs ~initially_active ~events
          ~repair:Churn.Incremental
      in
      let full_steps =
        Churn.simulate ~prefs:inst.prefs ~initially_active ~events
          ~repair:Churn.Full_rebuild
      in
      let s_incr, d_incr = aggregate incr_steps in
      let s_full, d_full = aggregate full_steps in
      let retention = Exp_common.ratio s_incr s_full in
      retains := !retains && retention >= 0.9;
      calmer := !calmer && d_incr < d_full;
      Tbl.add_row t
        [
          Workloads.family_name family;
          Tbl.fcell s_incr;
          Tbl.fcell s_full;
          Tbl.pct retention;
          Tbl.fcell2 d_incr;
          Tbl.fcell2 d_full;
        ])
    Workloads.standard_families;
  ( [ t ],
    [
      ("incremental repair retains at least 90% of the rebuild's satisfaction", !retains);
      ("incremental repair changes fewer edges per event than a rebuild", !calmer);
    ] )

let exp =
  {
    Exp_common.id = "E10";
    title = "Churn: incremental repair ablation";
    paper_ref = "§7 (future work: dynamicity)";
    run;
  }
