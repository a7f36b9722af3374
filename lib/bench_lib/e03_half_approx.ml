(* E3 — Theorem 2: LIC/LID are ½-approximations of the maximum-weight
   many-to-many matching.

   Small instances are compared against the exact branch-and-bound
   optimum; larger instances against the paper's own comparator (global
   greedy) plus the structural certificate (maximality + greedy
   stability) that the charging argument of Theorem 2 needs. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching

let small_table ~quick =
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let t =
    Tbl.create
      ~title:
        "E3a (Theorem 2): LIC weight vs exact optimum on small instances (bound = 0.5)"
      [
        ("instance", Tbl.Left);
        ("m", Tbl.Right);
        ("b", Tbl.Right);
        ("w(LIC)", Tbl.Right);
        ("w(OPT)", Tbl.Right);
        ("ratio", Tbl.Right);
        (">= 0.5", Tbl.Left);
      ]
  in
  let ratios = ref [] in
  List.iter
    (fun quota ->
      let instances = Workloads.small_instances ~seeds ~n:9 ~quota in
      List.iter
        (fun (inst : Workloads.instance) ->
          let m = Graph.edge_count inst.graph in
          if m <= 36 then begin
            let lic = Exp_common.run_lic inst in
            let opt =
              Owp_matching.Exact.max_weight_bmatching ~max_edges:36 inst.weights
                ~capacity:inst.capacity
            in
            let wl = BM.weight lic inst.weights and wo = BM.weight opt inst.weights in
            let ratio = if Float.equal wo 0.0 then 1.0 else wl /. wo in
            ratios := ratio :: !ratios;
            Tbl.add_row t
              [
                inst.label;
                Tbl.icell m;
                Tbl.icell quota;
                Tbl.fcell wl;
                Tbl.fcell wo;
                Tbl.fcell ratio;
                (if ratio >= 0.5 -. 1e-9 then "yes" else "VIOLATED");
              ]
          end)
        instances)
    [ 1; 2; 3 ];
  let summary =
    Tbl.create
      [ ("aggregate", Tbl.Left); ("value", Tbl.Right) ]
  in
  Tbl.add_row summary [ "instances"; Tbl.icell (List.length !ratios) ];
  Tbl.add_row summary [ "mean ratio"; Tbl.fcell (Exp_common.mean !ratios) ];
  Tbl.add_row summary [ "min ratio"; Tbl.fcell (Exp_common.minimum !ratios) ];
  Tbl.add_row summary [ "proven bound"; "0.5000" ];
  (t, summary)

let large_table ~quick =
  let ns = if quick then [ 500 ] else [ 500; 2000; 8000 ] in
  let t =
    Tbl.create
      ~title:
        "E3b: certificate + greedy comparison at scale (LIC vs global greedy; both greedy-stable)"
      [
        ("family", Tbl.Left);
        ("n", Tbl.Right);
        ("b", Tbl.Right);
        ("w(LIC)/w(greedy)", Tbl.Right);
        ("maximal", Tbl.Left);
        ("greedy-stable", Tbl.Left);
      ]
  in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let inst =
            Workloads.make ~seed:(7 * n) ~family ~pref_model:Workloads.Random_prefs ~n
              ~quota:4
          in
          let lic = Exp_common.run_lic inst in
          let greedy = Exp_common.run_greedy inst in
          let r =
            let wg = BM.weight greedy inst.weights in
            if Float.equal wg 0.0 then 1.0 else BM.weight lic inst.weights /. wg
          in
          Tbl.add_row t
            [
              Workloads.family_name family;
              Tbl.icell n;
              "4";
              Tbl.fcell r;
              (if BM.is_maximal lic then "yes" else "no");
              (if Owp_core.Theory.is_greedy_stable inst.weights lic then "yes" else "no");
            ])
        ns)
    Workloads.standard_families;
  t

(* The ratio ½ is asymptotically tight: on a 3-edge path with weights
   (1, 1+eps, 1) the locally heaviest middle edge blocks both light
   ones, so LIC earns 1+eps while the optimum earns 2.  Many disjoint
   copies keep the ratio global. *)
let tightness_table () =
  let t =
    Tbl.create
      ~title:
        "E3c (tightness): adversarial path gadgets — LIC/OPT approaches 0.5 as eps -> 0"
      [
        ("eps", Tbl.Right);
        ("gadgets", Tbl.Right);
        ("w(LIC)", Tbl.Right);
        ("w(OPT)", Tbl.Right);
        ("ratio", Tbl.Right);
      ]
  in
  List.iter
    (fun eps ->
      let gadgets = 50 in
      let b = Graph.Builder.create (4 * gadgets) in
      for k = 0 to gadgets - 1 do
        let base = 4 * k in
        ignore (Graph.Builder.add_edge b base (base + 1));
        ignore (Graph.Builder.add_edge b (base + 1) (base + 2));
        ignore (Graph.Builder.add_edge b (base + 2) (base + 3))
      done;
      let g = Graph.Builder.build b in
      let weights =
        Weights.of_array g
          (Array.init (Graph.edge_count g) (fun e ->
               if e mod 3 = 1 then 1.0 +. eps else 1.0))
      in
      let capacity = Array.make (Graph.node_count g) 1 in
      let lic = Owp_core.Lic_indexed.run weights ~capacity in
      let opt =
        (* the optimum on this gadget family is the light edges: 2/gadget *)
        2.0 *. float_of_int gadgets
      in
      let wl = BM.weight lic weights in
      Tbl.add_row t
        [
          Printf.sprintf "%.3f" eps;
          Tbl.icell gadgets;
          Tbl.fcell wl;
          Tbl.fcell opt;
          Tbl.fcell (wl /. opt);
        ])
    [ 0.5; 0.1; 0.01; 0.001 ];
  t

let run ~quick =
  let a, s = small_table ~quick in
  [ a; s; large_table ~quick; tightness_table () ]

let exp =
  {
    Exp_common.id = "E3";
    title = "Half-approximation of max-weight matching";
    paper_ref = "Theorem 2, Lemmas 3/4/6";
    run;
  }
