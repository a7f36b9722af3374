(* E8 — relation to the stable fixtures problem (§2): LID's
   satisfaction-maximising matching vs blocking-pair dynamics, on
   acyclic (bandwidth) and cyclic (random/transactions) preference
   systems.  Acyclic systems are where [Gai et al.] guarantee
   stabilization — the paper's motivation is that cyclic ones are not. *)

module Tbl = Owp_util.Tablefmt
module Fixtures = Owp_stable.Fixtures
module Blocking = Owp_stable.Blocking

let run ~quick =
  let n = if quick then 150 else 600 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E8: LID vs blocking-pair dynamics (stable fixtures), n = %d, b = 3" n)
      [
        ("pref model", Tbl.Left);
        ("acyclic?", Tbl.Left);
        ("S(LID)", Tbl.Right);
        ("S(dynamics)", Tbl.Right);
        ("LID blocking pairs", Tbl.Right);
        ("dynamics stable?", Tbl.Left);
        ("cold rounds", Tbl.Right);
        ("warm stable?", Tbl.Left);
        ("warm rounds", Tbl.Right);
      ]
  in
  let acyclic_stable = ref true and lid_wins = ref true in
  List.iter
    (fun model ->
      let inst =
        Workloads.make ~seed:5 ~family:(Workloads.Gnm_avg_deg 8.0) ~pref_model:model ~n
          ~quota:3
      in
      (* acyclicity detection is Θ(Σ deg²); sample a subgraph when big *)
      let acyclic =
        if n <= 200 then
          if Preference.is_acyclic inst.prefs then "yes" else "no"
        else
          (* shortcuts for sizes where the O(Σ deg²) search is heavy:
             a global ranking (bandwidth) or a symmetric score (latency)
             cannot produce a preference cycle — summing the defining
             inequalities around the cycle gives a contradiction, the
             same argument as the paper's Lemma 5 *)
          match model with
          | Workloads.Bandwidth_prefs -> "yes (global ranking)"
          | Workloads.Latency_prefs -> "yes (symmetric metric)"
          | _ -> "no (generic)"
      in
      let lid = Exp_common.run_lid inst in
      let s_lid = Exp_common.total_satisfaction inst.prefs lid.Owp_core.Stack.matching in
      let dyn =
        Fixtures.solve ~max_rounds:(20 * Graph.edge_count inst.graph) inst.prefs
      in
      let warm =
        Owp_stable.Fixtures_phase1.warm_solve
          ~max_rounds:(20 * Graph.edge_count inst.graph)
          inst.prefs
      in
      let s_dyn = Exp_common.total_satisfaction inst.prefs dyn.Fixtures.matching in
      (match model with
      | Workloads.Bandwidth_prefs | Workloads.Latency_prefs ->
          acyclic_stable := !acyclic_stable && dyn.Fixtures.stable
      | _ -> lid_wins := !lid_wins && s_lid > s_dyn);
      Tbl.add_row t
        [
          Workloads.pref_model_name model;
          acyclic;
          Tbl.fcell s_lid;
          Tbl.fcell s_dyn;
          Tbl.icell (Blocking.count_blocking_pairs inst.prefs lid.Owp_core.Stack.matching);
          (if dyn.Fixtures.stable then "yes" else "no (cap hit)");
          Tbl.icell dyn.Fixtures.rounds;
          (if warm.Fixtures.stable then "yes" else "no (cap hit)");
          Tbl.icell warm.Fixtures.rounds;
        ])
    [
      Workloads.Bandwidth_prefs;
      Workloads.Latency_prefs;
      Workloads.Random_prefs;
      Workloads.Transaction_prefs;
    ];
  ( [ t ],
    [
      ("blocking-pair dynamics stabilize on both acyclic systems", !acyclic_stable);
      ("LID serves more satisfaction than the dynamics on both cyclic systems", !lid_wins);
    ] )

let exp =
  {
    Exp_common.id = "E8";
    title = "Comparison with stable fixtures dynamics";
    paper_ref = "§2 problem model; refs [3,7,13]";
    run;
  }
