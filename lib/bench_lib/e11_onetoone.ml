(* E11 — unit-quota cross-check: with b = 1 the problem is classic
   maximum weighted matching and LIC/LID coincide with the locally
   heaviest edge algorithms from the literature (Preis; Hoepman's
   distributed variant).  Compare against path-growing and the exact
   optimum on small graphs.  E11c prices the satisfaction objective in
   coverage: preferring heavy edges can leave peers unmatched that
   Edmonds' maximum cardinality matching (ref [2]) would serve. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module One = Owp_matching.Onetoone

let coverage_table ~quick =
  let n = if quick then 300 else 1500 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E11c: pairings made vs maximum possible (b = 1, n = %d, random prefs)" n)
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
      let lid = (Exp_common.run_lid inst).Owp_core.Stack.matching in
      let card = Owp_matching.Blossom.maximum_matching inst.graph in
      let s m = Exp_common.total_satisfaction inst.prefs m in
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
  ( t,
    [
      ("LID pairs at least 3/4 of a maximum matching on every family", !covers);
      ("LID serves more satisfaction than a maximum matching on every family", !happier);
    ] )

let run ~quick =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let t =
    Tbl.create
      ~title:"E11: one-to-one specialisation (b = 1), weight ratio vs exact optimum"
      [
        ("instance", Tbl.Left);
        ("LIC=Preis?", Tbl.Left);
        ("LID/opt", Tbl.Right);
        ("Preis/opt", Tbl.Right);
        ("path-growing/opt", Tbl.Right);
        ("greedy/opt", Tbl.Right);
      ]
  in
  let lic_is_preis = ref true and hoepman = ref true in
  List.iter
    (fun seed ->
      let inst =
        Workloads.make ~seed ~family:(Workloads.Gnp 0.4)
          ~pref_model:Workloads.Random_prefs ~n:10 ~quota:1
      in
      if Graph.edge_count inst.graph <= 30 then begin
        let opt =
          Owp_matching.Exact.max_weight_bmatching ~max_edges:30 inst.weights
            ~capacity:inst.capacity
        in
        let wopt = BM.weight opt inst.weights in
        let ratio m = Exp_common.ratio (BM.weight m inst.weights) wopt in
        let lid = (Exp_common.run_lid inst).Owp_core.Stack.matching in
        let lic = Exp_common.run_lic inst in
        let preis = One.preis inst.weights in
        lic_is_preis := !lic_is_preis && BM.equal lic preis;
        let pg = One.path_growing inst.weights in
        let greedy = One.global_greedy inst.weights in
        Tbl.add_row t
          [
            inst.label;
            (if BM.equal lic preis then "yes" else "no");
            Tbl.fcell (ratio lid);
            Tbl.fcell (ratio preis);
            Tbl.fcell (ratio pg);
            Tbl.fcell (ratio greedy);
          ]
      end)
    seeds;
  (* distributed one-to-one protocols head-to-head: Hoepman's REQ/DROP
     vs LID at b = 1 — same edge set, different message bills *)
  let t2 =
    Tbl.create
      ~title:"E11b: distributed protocols at b = 1 — LID vs Hoepman (ref [6])"
      [
        ("n", Tbl.Right);
        ("m", Tbl.Right);
        ("same edge set", Tbl.Left);
        ("LID msgs", Tbl.Right);
        ("Hoepman msgs", Tbl.Right);
        ("LID v-time", Tbl.Right);
        ("Hoepman v-time", Tbl.Right);
      ]
  in
  let sizes = if quick then [ 200 ] else [ 200; 1000; 4000 ] in
  List.iter
    (fun n ->
      let inst = Exp_common.gnm ~seed:n ~deg:8.0 ~n ~quota:1 in
      let lid = Exp_common.run_lid inst in
      let hoep = Owp_core.Hoepman.run ~seed:(n + 1) inst.weights in
      let same = BM.equal lid.Owp_core.Stack.matching hoep.Owp_core.Hoepman.matching in
      hoepman := !hoepman && same;
      Tbl.add_row t2
        [
          Tbl.icell n;
          Tbl.icell (Graph.edge_count inst.graph);
          (if same then "yes" else "no");
          Tbl.icell (lid.Owp_core.Stack.prop_count + lid.Owp_core.Stack.rej_count);
          Tbl.icell
            (hoep.Owp_core.Hoepman.req_count + hoep.Owp_core.Hoepman.drop_count);
          Tbl.fcell2 lid.Owp_core.Stack.completion_time;
          Tbl.fcell2 hoep.Owp_core.Hoepman.completion_time;
        ])
    sizes;
  let t3, coverage_claims = coverage_table ~quick in
  ( [ t; t2; t3 ],
    [
      ("LIC = Preis on every b = 1 instance", !lic_is_preis);
      ("LID and Hoepman lock the same edge set at every n", !hoepman);
    ]
    @ coverage_claims )

let exp =
  {
    Exp_common.id = "E11";
    title = "One-to-one baselines";
    paper_ref = "§1 related work [2,6,14,16]";
    run;
  }
