(* E18 — exact approximation ratios at scale on bipartite instances.

   General-graph exact optima are only tractable tiny (E3/E6), but
   bipartite max-weight b-matching is polynomial via min-cost flow — so
   on client/server-style overlays we can measure LID's true weight
   ratio at thousands of nodes. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let make_bipartite seed ~left ~right ~p ~quota =
  let rng = Prng.create seed in
  let g = Gen.random_bipartite rng ~left ~right ~p in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference prefs in
  let capacity = Array.init (Graph.node_count g) (Preference.quota prefs) in
  (g, prefs, w, capacity)

let run ~quick =
  let sizes = if quick then [ (40, 60) ] else [ (40, 60); (150, 200); (400, 600) ] in
  let t =
    Tbl.create
      ~title:
        "E18: LID weight & satisfaction vs exact bipartite optimum (min-cost flow), p = 0.1, b = 3"
      [
        ("left+right", Tbl.Right);
        ("m", Tbl.Right);
        ("w(LID)/w(OPT)", Tbl.Right);
        ("S(LID)/S(OPT-w)", Tbl.Right);
        (">= 0.5", Tbl.Left);
      ]
  in
  let half = ref true in
  List.iter
    (fun (left, right) ->
      let g, prefs, w, capacity =
        make_bipartite (left + right) ~left ~right ~p:0.1 ~quota:3
      in
      let lid = Owp_core.Stack.run ~seed:18 w ~capacity in
      let opt = Owp_matching.Exact.max_weight_bipartite w ~capacity ~left in
      let wr =
        let wo = BM.weight opt w in
        if Float.equal wo 0.0 then 1.0 else BM.weight lid.Owp_core.Stack.matching w /. wo
      in
      let sr =
        let so = Exp_common.total_satisfaction prefs opt in
        if Float.equal so 0.0 then 1.0
        else Exp_common.total_satisfaction prefs lid.Owp_core.Stack.matching /. so
      in
      half := !half && wr >= 0.5 -. 1e-9;
      Tbl.add_row t
        [
          Printf.sprintf "%d+%d" left right;
          Tbl.icell (Graph.edge_count g);
          Tbl.fcell wr;
          Tbl.fcell sr;
          (if wr >= 0.5 -. 1e-9 then "yes" else "VIOLATED");
        ])
    sizes;
  ([ t ], [ ("w(LID) >= w(OPT)/2 at every size (Theorem 2)", !half) ])

let exp =
  {
    Exp_common.id = "E18";
    title = "Exact ratios at scale (bipartite)";
    paper_ref = "Theorem 2 at scale (flow-exact baseline)";
    run;
  }
