(* E4 — Lemmas 4 & 6: LID and LIC select the same edge set, regardless
   of message delays (LID) or which locally heaviest edge is taken
   first (LIC strategies).  E4b ablates §4's uniqueness requirement:
   weights quantised onto a coarse grid collide on many edges, the
   identity tie-break keeps the order total, and LID must still
   terminate on LIC's edge set. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Simnet = Owp_simnet.Simnet

(* LID on [w] next to the indexed LIC it must equal (Lemma 6) *)
let lid_and_lic ?delay ~seed w ~capacity =
  (Owp_core.Stack.run ~seed ?delay w ~capacity, Owp_core.Lic_indexed.run w ~capacity)

let delay_models =
  [
    ("unit", Simnet.Unit);
    ("uniform[0.5,1.5]", Simnet.Uniform (0.5, 1.5));
    ("uniform[0.1,10]", Simnet.Uniform (0.1, 10.0));
    ("exponential(1)", Simnet.Exponential 1.0);
  ]

let quantize w levels =
  let g = Weights.graph w in
  Weights.of_array g
    (Array.init (Graph.edge_count g) (fun e ->
         Float.round (Weights.weight w e *. float_of_int levels) /. float_of_int levels))

let ties_table ~quick =
  let n = if quick then 150 else 800 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E4b: tie-heavy weights (quantised); LID still terminates and equals LIC (n = %d)"
           n)
      [
        ("quantisation levels", Tbl.Right);
        ("distinct weights", Tbl.Right);
        ("edges", Tbl.Right);
        ("LID terminated", Tbl.Left);
        ("LID = LIC", Tbl.Left);
      ]
  in
  let inst = Exp_common.gnm ~seed:3 ~deg:8.0 ~n ~quota:3 in
  let exact = ref true in
  List.iter
    (fun levels ->
      let wq = quantize inst.weights levels in
      let lid, lic = lid_and_lic ~seed:11 wq ~capacity:inst.capacity in
      let same = BM.equal lid.Owp_core.Stack.matching lic in
      exact := !exact && lid.Owp_core.Stack.all_terminated && same;
      Tbl.add_row t
        [
          Tbl.icell levels;
          Tbl.icell (Weights.distinct_weights wq);
          Tbl.icell (Graph.edge_count inst.graph);
          Exp_common.quiescence_cell lid;
          Exp_common.yn same;
        ])
    [ 1000; 100; 10; 2; 1 ];
  (t, !exact)

let run ~quick =
  let ns = if quick then [ 60 ] else [ 60; 300; 1000 ] in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let t =
    Tbl.create
      ~title:"E4 (Lemmas 4/6): LID edge set == LIC edge set under every schedule"
      [
        ("family", Tbl.Left);
        ("n", Tbl.Right);
        ("delay model", Tbl.Left);
        ("runs", Tbl.Right);
        ("equal sets", Tbl.Right);
        ("max |w diff|", Tbl.Right);
      ]
  in
  let all_equal = ref true in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          List.iter
            (fun (dname, delay) ->
              let runs = ref 0 and equal = ref 0 and maxdiff = ref 0.0 in
              List.iter
                (fun seed ->
                  let inst =
                    Workloads.make ~seed ~family ~pref_model:Workloads.Random_prefs ~n
                      ~quota:3
                  in
                  let lid, lic =
                    lid_and_lic ~seed:(seed * 31) ~delay inst.weights ~capacity:inst.capacity
                  in
                  let lic_climb =
                    Owp_core.Lic.run ~strategy:Owp_core.Lic.Climbing inst.weights
                      ~capacity:inst.capacity
                  in
                  incr runs;
                  let m = lid.Owp_core.Stack.matching in
                  if BM.equal m lic && BM.equal lic lic_climb then incr equal;
                  maxdiff :=
                    Float.max !maxdiff
                      (Float.abs (BM.weight m inst.weights -. BM.weight lic inst.weights)))
                seeds;
              all_equal := !all_equal && !equal = !runs;
              Tbl.add_row t
                [
                  Workloads.family_name family;
                  Tbl.icell n;
                  dname;
                  Tbl.icell !runs;
                  Tbl.icell !equal;
                  Printf.sprintf "%.2e" !maxdiff;
                ])
            delay_models)
        ns)
    Workloads.standard_families;
  let ties, exact = ties_table ~quick in
  ( [ t; ties ],
    [
      ("LID, indexed LIC and climbing LIC lock one edge set on every run (Lemmas 4/6)", !all_equal);
      ("LID terminates on LIC's edge set at every quantisation level", exact);
    ] )

let exp =
  {
    Exp_common.id = "E4";
    title = "LID ≡ LIC under arbitrary schedules";
    paper_ref = "Lemmas 3, 4, 6; §4 (unique weights)";
    run;
  }
