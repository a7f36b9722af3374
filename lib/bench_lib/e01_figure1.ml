(* E1 — Figure 1 of the paper: worked satisfaction computation.
   A node with quota b=4 and a 7-entry preference list connects to the
   neighbours occupying preference ranks 0, 1, 3 and 5; the paper
   reports S_i = 0.893.  The table shows the per-connection breakdown
   (the rank-vs-connection-slot penalties) and the closed-form value. *)

module Tbl = Owp_util.Tablefmt

let quota = 4
let list_len = 7
let ranks = [ 0; 1; 3; 5 ]

let run ~quick:_ =
  let t =
    Tbl.create
      ~title:
        "E1 (Figure 1): satisfaction of a node with b=4, |L|=7, connections at ranks 0,1,3,5"
      [
        ("connection slot Q_i", Tbl.Right);
        ("pref rank R_i", Tbl.Right);
        ("penalty (R-Q)/(bL)", Tbl.Right);
        ("DS_ij (eq.4)", Tbl.Right);
        ("DS-bar_ij (eq.5)", Tbl.Right);
      ]
  in
  List.iteri
    (fun q r ->
      let penalty = float_of_int (r - q) /. float_of_int (quota * list_len) in
      let d = Satisfaction.delta ~quota ~list_len ~rank:r ~position:q in
      let ds = Satisfaction.static_delta ~quota ~list_len ~rank:r in
      Tbl.add_row t
        [ Tbl.icell q; Tbl.icell r; Tbl.fcell penalty; Tbl.fcell d; Tbl.fcell ds ])
    ranks;
  let s = Satisfaction.of_ranks ~quota ~list_len ranks in
  let sum =
    List.fold_left ( +. ) 0.0
      (List.mapi (fun q r -> Satisfaction.delta ~quota ~list_len ~rank:r ~position:q) ranks)
  in
  let summary =
    Tbl.create
      [ ("quantity", Tbl.Left); ("value", Tbl.Right); ("paper", Tbl.Right) ]
  in
  Tbl.add_row summary [ "S_i (eq. 1)"; Tbl.fcell s; "0.893" ];
  Tbl.add_row summary
    [ "S_i exact fraction"; Printf.sprintf "%d/%d" 25 28; "25/28" ];
  Tbl.add_row summary [ "sum of DS_ij (eq. 4)"; Tbl.fcell sum; "= S_i" ];
  ( [ t; summary ],
    [
      ("S_i = 25/28, the paper's 0.893", Float.abs (s -. (25.0 /. 28.0)) < 1e-12);
      ("the eq. 4 terms sum to S_i", Float.abs (sum -. s) < 1e-12);
    ] )

let exp =
  {
    Exp_common.id = "E1";
    title = "Worked satisfaction example";
    paper_ref = "Figure 1, eqs. 1/4/5";
    run;
  }
