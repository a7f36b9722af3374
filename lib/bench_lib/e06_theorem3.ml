(* E6 — Theorem 3: LID achieves at least ¼(1 + 1/b_max) of the optimal
   total satisfaction (exact satisfaction optimum by exhaustive search
   on small instances). *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

let run ~quick =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6 ] in
  let t =
    Tbl.create
      ~title:
        "E6 (Theorem 3): LID total satisfaction vs exact optimum (bound = 1/4(1+1/b_max))"
      [
        ("instance", Tbl.Left);
        ("m", Tbl.Right);
        ("b", Tbl.Right);
        ("S(LID)", Tbl.Right);
        ("S(OPT)", Tbl.Right);
        ("ratio", Tbl.Right);
        ("bound", Tbl.Right);
        ("holds", Tbl.Left);
      ]
  in
  let ratios = ref [] and holds = ref true in
  List.iter
    (fun quota ->
      List.iter
        (fun seed ->
          let inst =
            Workloads.make ~seed ~family:(Workloads.Gnp 0.45)
              ~pref_model:Workloads.Random_prefs ~n:8 ~quota
          in
          let m = Graph.edge_count inst.graph in
          if m <= 22 then begin
            let lid = Exp_common.run_lid inst in
            let s_lid = Exp_common.total_satisfaction inst.prefs lid.Owp_core.Stack.matching in
            let _opt, s_opt =
              Owp_matching.Exact.max_satisfaction_bmatching ~max_edges:22 inst.prefs
            in
            let ratio = Exp_common.ratio s_lid s_opt in
            let bmax = Preference.max_quota inst.prefs in
            let bound = Owp_core.Theory.theorem3_bound ~bmax in
            ratios := ratio :: !ratios;
            holds := !holds && ratio >= bound -. 1e-9;
            Tbl.add_row t
              [
                inst.label;
                Tbl.icell m;
                Tbl.icell quota;
                Tbl.fcell s_lid;
                Tbl.fcell s_opt;
                Tbl.fcell ratio;
                Tbl.fcell bound;
                (if ratio >= bound -. 1e-9 then "yes" else "VIOLATED");
              ]
          end)
        seeds)
    [ 1; 2; 3 ];
  let summary = Tbl.create [ ("aggregate", Tbl.Left); ("value", Tbl.Right) ] in
  Tbl.add_row summary [ "instances"; Tbl.icell (List.length !ratios) ];
  Tbl.add_row summary [ "mean satisfaction ratio"; Tbl.fcell (Exp_common.mean !ratios) ];
  Tbl.add_row summary [ "min satisfaction ratio"; Tbl.fcell (Exp_common.minimum !ratios) ];
  ( [ t; summary ],
    [ ("S(LID) >= 1/4(1+1/b_max) S(OPT) on every small instance (Theorem 3)", !holds) ] )

let exp =
  {
    Exp_common.id = "E6";
    title = "End-to-end satisfaction guarantee";
    paper_ref = "Theorem 3";
    run;
  }
