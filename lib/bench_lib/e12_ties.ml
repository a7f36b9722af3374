(* E12 — ablation of §4's uniqueness requirement and weight combiner.

   (a) Ties: quantise weights onto a coarse grid so that many edges
   collide; the identity tie-break keeps the order total, and LID must
   still terminate and equal LIC.
   (b) Combiner: eq. 9 sums the two endpoint ΔS̄ values; Min and
   Product are plausible-looking alternatives without the additive
   decomposition — measure the satisfaction they actually deliver. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

let quantize w levels =
  let g = Weights.graph w in
  let arr =
    Array.init (Graph.edge_count g) (fun e ->
        let x = Weights.weight w e in
        Float.round (x *. float_of_int levels) /. float_of_int levels)
  in
  Weights.of_array g arr

let run ~quick =
  let n = if quick then 150 else 800 in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E12a: tie-heavy weights (quantised); LID still terminates and equals LIC (n = %d)"
           n)
      [
        ("quantisation levels", Tbl.Right);
        ("distinct weights", Tbl.Right);
        ("edges", Tbl.Right);
        ("LID terminated", Tbl.Left);
        ("LID = LIC", Tbl.Left);
      ]
  in
  let inst =
    Workloads.make ~seed:3 ~family:(Workloads.Gnm_avg_deg 8.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:3
  in
  List.iter
    (fun levels ->
      let wq = quantize inst.weights levels in
      let lic = Owp_core.Lic_indexed.run wq ~capacity:inst.capacity in
      let lid = Owp_core.Stack.run ~seed:11 wq ~capacity:inst.capacity in
      Tbl.add_row t1
        [
          Tbl.icell levels;
          Tbl.icell (Weights.distinct_weights wq);
          Tbl.icell (Graph.edge_count inst.graph);
          Exp_common.quiescence_cell lid;
          (if BM.equal lid.Owp_core.Stack.matching lic then "yes" else "NO");
        ])
    [ 1000; 100; 10; 2; 1 ];
  let t2 =
    Tbl.create
      ~title:"E12b: weight combiner ablation (eq. 9 Sum vs Min vs Product), LIC, b = 3"
      [
        ("combiner", Tbl.Left);
        ("total satisfaction", Tbl.Right);
        ("vs Sum", Tbl.Right);
      ]
  in
  let sat_of combiner =
    let w = Weights.of_preference ~combiner inst.prefs in
    let m = Owp_core.Lic_indexed.run w ~capacity:inst.capacity in
    Exp_common.total_satisfaction inst.prefs m
  in
  let s_sum = sat_of Weights.Sum in
  List.iter
    (fun (name, combiner) ->
      let s = sat_of combiner in
      Tbl.add_row t2
        [ name; Tbl.fcell s; Tbl.pct (if Float.equal s_sum 0.0 then 1.0 else s /. s_sum) ])
    [ ("Sum (eq. 9)", Weights.Sum); ("Min", Weights.Min); ("Product", Weights.Product) ];
  [ t1; t2 ]

let exp =
  {
    Exp_common.id = "E12";
    title = "Tie-breaking and combiner ablations";
    paper_ref = "§4 (unique weights); DESIGN ablations";
    run;
  }
