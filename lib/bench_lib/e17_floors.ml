(* E17 — individual satisfaction floors (§7 asks for per-peer minimum
   guarantees): empirical distribution of per-node satisfaction across
   algorithms — what fraction of peers end up badly served, and does
   any algorithm dominate at the low end? *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

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

let run ~quick =
  let n = if quick then 300 else 1000 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E17: per-node satisfaction floors (G(n,m) deg 8, n = %d, b = 3, random prefs)"
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
  let round_cap = 3 * Graph.edge_count inst.Workloads.graph in
  let dyn = (Owp_stable.Fixtures.solve ~max_rounds:round_cap prefs).Owp_stable.Fixtures.matching in
  let warm =
    (Owp_stable.Fixtures_phase1.warm_solve ~max_rounds:round_cap prefs)
      .Owp_stable.Fixtures.matching
  in
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
      ("blocking-pair dynamics", dyn);
      ("phase-1 warm dynamics", warm);
      ("global greedy", greedy);
    ];
  let s = Exp_common.total_satisfaction prefs in
  ( [ t ],
    [
      ("LID's matching is global greedy's (Lemma 6)", BM.equal lid greedy);
      ("LID serves more satisfaction than the blocking-pair dynamics", s lid > s dyn);
    ] )

let exp =
  {
    Exp_common.id = "E17";
    title = "Individual satisfaction floors";
    paper_ref = "§7 (per-peer guarantees — extension)";
    run;
  }
