(* E8 — relation to the stable fixtures problem (§2): LID's
   satisfaction-maximising matching vs blocking-pair dynamics, on
   acyclic (bandwidth) and cyclic (random/transactions) preference
   systems.  Acyclic systems are where [Gai et al.] guarantee
   stabilization — the paper's motivation is that cyclic ones are not.
   E8b looks at the low end (§7 asks for per-peer minimum guarantees):
   what fraction of peers each algorithm leaves badly served. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Fixtures = Owp_stable.Fixtures
module Blocking = Owp_stable.Blocking

(* the cold and the phase-1 warm blocking-pair dynamics, one round cap *)
let dynamics ~max_rounds prefs =
  (Fixtures.solve ~max_rounds prefs, Owp_stable.Fixtures_phase1.warm_solve ~max_rounds prefs)

(* per-node satisfaction of every node with a list and a quota *)
let profile prefs m =
  let g = Preference.graph prefs in
  let xs = ref [] in
  for v = 0 to Graph.node_count g - 1 do
    if Preference.list_len prefs v > 0 && Preference.quota prefs v > 0 then
      xs := BM.satisfaction prefs m v :: !xs
  done;
  Array.of_list !xs

let frac_below xs t =
  let c = Array.fold_left (fun a x -> if x < t then a + 1 else a) 0 xs in
  float_of_int c /. float_of_int (Array.length xs)

let floors_table ~quick =
  let n = if quick then 300 else 1000 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E8b: per-node satisfaction floors (G(n,m) deg 8, n = %d, b = 3, random prefs)"
           n)
      [
        ("algorithm", Tbl.Left);
        ("mean S", Tbl.Right);
        ("min S", Tbl.Right);
        ("% below 0.10", Tbl.Right);
        ("% below 0.25", Tbl.Right);
        ("% below 0.50", Tbl.Right);
      ]
  in
  let inst = Exp_common.gnm ~seed:17 ~deg:8.0 ~n ~quota:3 in
  let prefs = inst.Workloads.prefs in
  let lid = (Exp_common.run_lid inst).Owp_core.Stack.matching in
  let improved, _ = Owp_core.Improve.local_search ~max_moves:(2 * n) prefs lid in
  let dyn, warm = dynamics ~max_rounds:(3 * Graph.edge_count inst.Workloads.graph) prefs in
  let greedy = Exp_common.run_greedy inst in
  List.iter
    (fun (name, m) ->
      let xs = profile prefs m in
      let s = Owp_util.Stats.summarize xs in
      Tbl.add_row t
        [
          name;
          Tbl.fcell s.Owp_util.Stats.mean;
          Tbl.fcell s.Owp_util.Stats.min;
          Tbl.pct (frac_below xs 0.10);
          Tbl.pct (frac_below xs 0.25);
          Tbl.pct (frac_below xs 0.50);
        ])
    [
      ("LID", lid);
      ("LID + local search", improved);
      ("blocking-pair dynamics", dyn.Fixtures.matching);
      ("phase-1 warm dynamics", warm.Fixtures.matching);
      ("global greedy", greedy);
    ];
  let s = Exp_common.total_satisfaction prefs in
  ( t,
    [
      ("LID's matching is global greedy's (Lemma 6)", BM.equal lid greedy);
      ( "LID serves more satisfaction than the blocking-pair dynamics",
        s lid > s dyn.Fixtures.matching );
    ] )

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
      let dyn, warm = dynamics ~max_rounds:(20 * Graph.edge_count inst.graph) inst.prefs in
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
  let floors, floor_claims = floors_table ~quick in
  ( [ t; floors ],
    [
      ("blocking-pair dynamics stabilize on both acyclic systems", !acyclic_stable);
      ("LID serves more satisfaction than the dynamics on both cyclic systems", !lid_wins);
    ]
    @ floor_claims )

let exp =
  {
    Exp_common.id = "E8";
    title = "Comparison with stable fixtures dynamics";
    paper_ref = "§2 problem model; refs [3,7,13]; §7 per-peer floors";
    run;
  }
