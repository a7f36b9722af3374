(* E0 — workload characterization ("Table 1"): structural properties of
   the graph families and preference models every other experiment
   sweeps, so their results can be read in context. *)

module Tbl = Owp_util.Tablefmt

let run ~quick =
  let n = if quick then 300 else 2000 in
  let t =
    Tbl.create
      ~title:(Printf.sprintf "E0a: graph families at n = %d (seed 1)" n)
      [
        ("family", Tbl.Left);
        ("m", Tbl.Right);
        ("avg deg", Tbl.Right);
        ("max deg", Tbl.Right);
        ("clustering", Tbl.Right);
        ("assortativity", Tbl.Right);
        ("diam >=", Tbl.Right);
        ("connected", Tbl.Left);
      ]
  in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:1 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
      in
      let g = inst.Workloads.graph in
      Tbl.add_row t
        [
          Workloads.family_name family;
          Tbl.icell (Graph.edge_count g);
          Tbl.fcell2 (Metrics.average_degree g);
          Tbl.icell (Graph.max_degree g);
          Tbl.fcell (Metrics.global_clustering g);
          Tbl.fcell (Metrics.degree_assortativity g);
          Tbl.icell (Metrics.eccentricity_lower_bound g);
          (if Metrics.is_connected g then "yes" else "no");
        ])
    (Workloads.standard_families @ [ Workloads.Power_law (2.5, 2); Workloads.Torus ]);
  (* preference models: acyclicity on a sample small enough for the
     O(Σ deg²) cycle search *)
  let t2 =
    Tbl.create
      ~title:"E0b: preference models on G(n,m) deg 8, n = 150 (acyclicity sampled over 5 seeds)"
      [
        ("model", Tbl.Left);
        ("acyclic instances", Tbl.Right);
        ("weights distinct", Tbl.Right);
      ]
  in
  let as_expected = ref true in
  List.iter
    (fun model ->
      let acyclic = ref 0 and distinct = ref 0 and edges = ref 0 in
      for seed = 1 to 5 do
        let inst =
          Workloads.make ~seed ~family:(Workloads.Gnm_avg_deg 8.0) ~pref_model:model
            ~n:150 ~quota:3
        in
        if Preference.is_acyclic inst.Workloads.prefs then incr acyclic;
        distinct := !distinct + Weights.distinct_weights inst.Workloads.weights;
        edges := !edges + Graph.edge_count inst.Workloads.graph
      done;
      let cyclic = model = Workloads.Random_prefs || model = Workloads.Transaction_prefs in
      as_expected := !as_expected && !acyclic = if cyclic then 0 else 5;
      Tbl.add_row t2
        [
          Workloads.pref_model_name model;
          Printf.sprintf "%d/5" !acyclic;
          Tbl.pct (float_of_int !distinct /. float_of_int !edges);
        ])
    [
      Workloads.Random_prefs;
      Workloads.Latency_prefs;
      Workloads.Interest_prefs 8;
      Workloads.Bandwidth_prefs;
      Workloads.Transaction_prefs;
    ];
  ( [ t; t2 ],
    [
      ( "latency, interest and bandwidth preferences are acyclic on every sample, \
         random and transaction ones on none",
        !as_expected );
    ] )

let exp =
  {
    Exp_common.id = "E0";
    title = "Workload characterization";
    paper_ref = "setup for E2–E16";
    run;
  }
