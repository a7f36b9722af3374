(* E4 — Lemmas 4 & 6: LID and LIC select the same edge set, regardless
   of message delays (LID) or which locally heaviest edge is taken
   first (LIC strategies). *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Simnet = Owp_simnet.Simnet

let delay_models =
  [
    ("unit", Simnet.Unit);
    ("uniform[0.5,1.5]", Simnet.Uniform (0.5, 1.5));
    ("uniform[0.1,10]", Simnet.Uniform (0.1, 10.0));
    ("exponential(1)", Simnet.Exponential 1.0);
  ]

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
                  let lic = Exp_common.run_lic inst in
                  let lic_climb =
                    Owp_core.Lic.run ~strategy:Owp_core.Lic.Climbing inst.weights
                      ~capacity:inst.capacity
                  in
                  let lid =
                    Owp_core.Stack.run ~seed:(seed * 31) ~delay inst.weights
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
  ( [ t ],
    [ ("LID, indexed LIC and climbing LIC lock one edge set on every run (Lemmas 4/6)", !all_equal) ] )

let exp =
  {
    Exp_common.id = "E4";
    title = "LID ≡ LIC under arbitrary schedules";
    paper_ref = "Lemmas 3, 4, 6";
    run;
  }
