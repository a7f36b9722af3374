(* E20 — coverage: satisfaction-driven matching vs the maximum possible
   number of pairings (Edmonds' maximum cardinality matching, the
   paper's ref [2]).  Preferring heavy edges can leave peers unmatched
   that a cardinality-maximising matcher would serve; this quantifies
   that price across families (b = 1, where the comparison is exact). *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

let run ~quick =
  let n = if quick then 300 else 1500 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E20: pairings made vs maximum possible (b = 1, n = %d, random prefs)" n)
      [
        ("family", Tbl.Left);
        ("max matching", Tbl.Right);
        ("LID pairs", Tbl.Right);
        ("coverage", Tbl.Right);
        ("LID satisfaction", Tbl.Right);
        ("max-card satisfaction", Tbl.Right);
      ]
  in
  let covers = ref true and happier = ref true in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:20 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:1
      in
      let g = inst.Workloads.graph in
      let lid = (Exp_common.run_lid inst).Owp_core.Stack.matching in
      let card = Owp_matching.Blossom.maximum_matching g in
      let s m = Exp_common.total_satisfaction inst.Workloads.prefs m in
      covers := !covers && 4 * BM.size lid >= 3 * BM.size card;
      happier := !happier && s lid > s card;
      Tbl.add_row t
        [
          Workloads.family_name family;
          Tbl.icell (BM.size card);
          Tbl.icell (BM.size lid);
          Tbl.pct (float_of_int (BM.size lid) /. float_of_int (max 1 (BM.size card)));
          Tbl.fcell (s lid);
          Tbl.fcell (s card);
        ])
    Workloads.standard_families;
  ( [ t ],
    [
      ("LID pairs at least 3/4 of a maximum matching on every family", !covers);
      ("LID serves more satisfaction than a maximum matching on every family", !happier);
    ] )

let exp =
  {
    Exp_common.id = "E20";
    title = "Coverage vs maximum cardinality";
    paper_ref = "ref [2] Edmonds (coverage baseline)";
    run;
  }
