(* E13 — overlay routing quality: path stretch of the constructed
   overlay vs the full potential graph (latency scenario of §1).

   The matching uses only b connections per peer out of deg potential
   ones; stretch measures what that sparsification costs in end-to-end
   route length.  LID's latency-preferring overlay is compared with a
   random maximal overlay of the same degree budget. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let euclid pts u v =
  let xu, yu = pts.(u) and xv, yv = pts.(v) in
  sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0))

let random_maximal rng g capacity =
  let order = Prng.permutation rng (Graph.edge_count g) in
  let residual = Array.copy capacity in
  let chosen = ref [] in
  Array.iter
    (fun eid ->
      let u, v = Graph.edge_endpoints g eid in
      if residual.(u) > 0 && residual.(v) > 0 then begin
        residual.(u) <- residual.(u) - 1;
        residual.(v) <- residual.(v) - 1;
        chosen := eid :: !chosen
      end)
    order;
  BM.of_edge_ids g ~capacity !chosen

let stretch_stats g pts m samples =
  let length eid =
    let u, v = Graph.edge_endpoints g eid in
    euclid pts u v
  in
  let xs = Spath.path_stretch g ~length ~subgraph:(fun e -> BM.mem m e) ~samples in
  let finite = List.filter (fun x -> not (Float.equal x infinity)) xs in
  let disconnected = List.length xs - List.length finite in
  let mean =
    if List.is_empty finite then nan
    else List.fold_left ( +. ) 0.0 finite /. float_of_int (List.length finite)
  in
  let p95 = if List.is_empty finite then nan else Owp_util.Stats.percentile (Array.of_list finite) 0.95 in
  (mean, p95, disconnected, List.length xs)

let run ~quick =
  let n = if quick then 300 else 1000 in
  let nsamples = if quick then 60 else 250 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E13: overlay path stretch, random geometric graph (n = %d, latency prefs)" n)
      [
        ("quota b", Tbl.Right);
        ("overlay", Tbl.Left);
        ("mean stretch", Tbl.Right);
        ("p95 stretch", Tbl.Right);
        ("disconnected pairs", Tbl.Right);
      ]
  in
  let rng = Prng.create 0xE13 in
  let g, pts = Gen.random_geometric rng ~n ~radius:(if quick then 0.12 else 0.07) in
  let samples =
    List.init nsamples (fun _ ->
        (Prng.int rng (Graph.node_count g), Prng.int rng (Graph.node_count g)))
    |> List.filter (fun (a, b) -> a <> b)
  in
  let connects = ref false and lid_name = "LID (latency prefs)" in
  List.iter
    (fun quota ->
      let prefs =
        Preference.of_metric g ~quota:(Preference.uniform_quota g quota)
          (Metric.latency pts)
      in
      let w = Weights.of_preference prefs in
      let capacity = Array.init (Graph.node_count g) (Preference.quota prefs) in
      let lid = Owp_core.Stack.run ~seed:13 w ~capacity in
      let rnd = random_maximal rng g capacity in
      List.iter
        (fun (name, m) ->
          let mean, p95, disc, total = stretch_stats g pts m samples in
          if quota = 5 && String.equal name lid_name then connects := disc = 0 && mean < 1.5;
          Tbl.add_row t
            [
              Tbl.icell quota;
              name;
              (if Float.is_nan mean then "n/a" else Tbl.fcell2 mean);
              (if Float.is_nan p95 then "n/a" else Tbl.fcell2 p95);
              Printf.sprintf "%d/%d" disc total;
            ])
        [ (lid_name, lid.Owp_core.Stack.matching); ("random maximal", rnd) ])
    [ 2; 3; 5 ];
  ( [ t ],
    [ ("the LID overlay at b = 5 connects every sampled pair, mean stretch < 1.5", !connects) ] )

let exp =
  {
    Exp_common.id = "E13";
    title = "Overlay path stretch";
    paper_ref = "§1 distance-metric scenario (extension)";
    run;
  }
