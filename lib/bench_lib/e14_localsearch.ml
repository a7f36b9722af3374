(* E14 — local-search ablation: how much of LID's remaining gap to the
   satisfaction optimum does a cheap centralized post-pass close?
   (Extension; the paper's §7 asks for better approximation ratios.) *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

let run ~quick =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6 ] in
  let t =
    Tbl.create
      ~title:
        "E14a: LID + satisfaction local search vs exact optimum (small instances)"
      [
        ("instance", Tbl.Left);
        ("S(LID)", Tbl.Right);
        ("S(LID+LS)", Tbl.Right);
        ("S(OPT)", Tbl.Right);
        ("gap closed", Tbl.Right);
        ("moves", Tbl.Right);
      ]
  in
  let never_worse = ref true and below_opt = ref true in
  List.iter
    (fun seed ->
      let inst =
        Workloads.make ~seed ~family:(Workloads.Gnp 0.45)
          ~pref_model:Workloads.Random_prefs ~n:8 ~quota:2
      in
      if Graph.edge_count inst.Workloads.graph <= 20 then begin
        let lid = Exp_common.run_lid inst in
        let s0 = Exp_common.total_satisfaction inst.Workloads.prefs lid.Owp_core.Stack.matching in
        let improved, moves =
          Owp_core.Improve.local_search inst.Workloads.prefs lid.Owp_core.Stack.matching
        in
        let s1 = Exp_common.total_satisfaction inst.Workloads.prefs improved in
        let _, s_opt =
          Owp_matching.Exact.max_satisfaction_bmatching ~max_edges:20 inst.Workloads.prefs
        in
        never_worse := !never_worse && s1 >= s0 -. 1e-9;
        below_opt := !below_opt && s1 <= s_opt +. 1e-9;
        let gap_closed =
          if s_opt -. s0 < 1e-9 then 1.0 else (s1 -. s0) /. (s_opt -. s0)
        in
        Tbl.add_row t
          [
            inst.Workloads.label;
            Tbl.fcell s0;
            Tbl.fcell s1;
            Tbl.fcell s_opt;
            Tbl.pct gap_closed;
            Tbl.icell moves;
          ]
      end)
    seeds;
  let t2 =
    Tbl.create
      ~title:"E14b: local-search improvement at scale (no exact reference)"
      [
        ("family", Tbl.Left);
        ("n", Tbl.Right);
        ("S(LID)", Tbl.Right);
        ("S(LID+LS)", Tbl.Right);
        ("improvement", Tbl.Right);
        ("moves", Tbl.Right);
      ]
  in
  let n = if quick then 200 else 800 in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:14 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
      in
      let lid = Exp_common.run_lid inst in
      let s0 = Exp_common.total_satisfaction inst.Workloads.prefs lid.Owp_core.Stack.matching in
      let improved, moves =
        Owp_core.Improve.local_search ~max_moves:(2 * n) inst.Workloads.prefs
          lid.Owp_core.Stack.matching
      in
      let s1 = Exp_common.total_satisfaction inst.Workloads.prefs improved in
      never_worse := !never_worse && s1 >= s0 -. 1e-9;
      Tbl.add_row t2
        [
          Workloads.family_name family;
          Tbl.icell n;
          Tbl.fcell s0;
          Tbl.fcell s1;
          Tbl.pct (if Float.equal s0 0.0 then 0.0 else (s1 -. s0) /. s0);
          Tbl.icell moves;
        ])
    Workloads.standard_families;
  ( [ t; t2 ],
    [
      ("local search never lowers LID's satisfaction", !never_worse);
      ("local search stays at or below the exact optimum", !below_opt);
    ] )

let exp =
  {
    Exp_common.id = "E14";
    title = "Satisfaction local-search ablation";
    paper_ref = "§7 (better ratios — extension)";
    run;
  }
