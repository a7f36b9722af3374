(* E7 — the introduction's quality claim in practice: satisfaction
   achieved by LID across topology families, quotas and metric models.
   E7c ablates the weight combiner: eq. 9 sums the two endpoint ΔS̄
   values; Min and Product are plausible-looking alternatives without
   the additive decomposition. *)

module Tbl = Owp_util.Tablefmt

(* the quality profile of a LID run, from its eq. 1 profile *)
let quality (inst : Workloads.instance) (lid : Owp_core.Stack.report) =
  let m = lid.Owp_core.Stack.matching in
  Owp_overlay.Quality.measure inst.prefs m
    (Owp_core.Pipeline.satisfaction_profile inst.prefs m)

let combiner_table ~quick =
  let t =
    Tbl.create
      ~title:"E7c: weight combiner ablation (eq. 9 Sum vs Min vs Product), LIC, b = 3"
      [
        ("combiner", Tbl.Left);
        ("total satisfaction", Tbl.Right);
        ("vs Sum", Tbl.Right);
      ]
  in
  let inst = Exp_common.gnm ~seed:3 ~deg:8.0 ~n:(if quick then 150 else 800) ~quota:3 in
  let sat_of combiner =
    let w = Weights.of_preference ~combiner inst.prefs in
    Exp_common.total_satisfaction inst.prefs (Owp_core.Lic_indexed.run w ~capacity:inst.capacity)
  in
  let s_sum = sat_of Weights.Sum in
  let sum_best = ref true in
  List.iter
    (fun (name, combiner) ->
      let s = sat_of combiner in
      sum_best := !sum_best && s <= s_sum;
      Tbl.add_row t
        [ name; Tbl.fcell s; Tbl.pct (Exp_common.ratio s s_sum) ])
    [ ("Sum (eq. 9)", Weights.Sum); ("Min", Weights.Min); ("Product", Weights.Product) ];
  (t, !sum_best)

let run ~quick =
  let n = if quick then 400 else 2000 in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E7a: mean satisfaction vs quota b (LID, n = %d, random preferences)" n)
      [
        ("family", Tbl.Left);
        ("b=1", Tbl.Right);
        ("b=2", Tbl.Right);
        ("b=4", Tbl.Right);
        ("b=8", Tbl.Right);
      ]
  in
  let quiesced = ref true and grows = ref true in
  List.iter
    (fun family ->
      let means =
        List.map
          (fun quota ->
            let inst =
              Workloads.make ~seed:(17 * quota) ~family
                ~pref_model:Workloads.Random_prefs ~n ~quota
            in
            let lid = Exp_common.run_lid inst in
            quiesced := !quiesced && lid.Owp_core.Stack.all_terminated;
            (quality inst lid).Owp_overlay.Quality.mean)
          [ 1; 2; 4; 8 ]
      in
      grows := !grows && List.nth means 3 > List.hd means;
      Tbl.add_row t1 (Workloads.family_name family :: List.map Tbl.fcell means))
    Workloads.standard_families;
  let t2 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E7b: quality profile per metric model (LID, BA(4), n = %d, b = 4)" n)
      [
        ("metric", Tbl.Left);
        ("mean S", Tbl.Right);
        ("median S", Tbl.Right);
        ("p05 S", Tbl.Right);
        ("jain", Tbl.Right);
        ("saturated%", Tbl.Right);
        ("top-b%", Tbl.Right);
      ]
  in
  List.iter
    (fun model ->
      let inst =
        Workloads.make ~seed:23 ~family:(Workloads.Ba 4) ~pref_model:model ~n ~quota:4
      in
      let lid = Exp_common.run_lid inst in
      quiesced := !quiesced && lid.Owp_core.Stack.all_terminated;
      let q = quality inst lid in
      Tbl.add_row t2
        [
          Workloads.pref_model_name model;
          Tbl.fcell q.Owp_overlay.Quality.mean;
          Tbl.fcell q.Owp_overlay.Quality.median;
          Tbl.fcell q.Owp_overlay.Quality.p05;
          Tbl.fcell q.Owp_overlay.Quality.jain;
          Tbl.pct q.Owp_overlay.Quality.saturated_fraction;
          Tbl.pct q.Owp_overlay.Quality.fully_satisfied_fraction;
        ])
    [
      Workloads.Random_prefs;
      Workloads.Latency_prefs;
      Workloads.Interest_prefs 8;
      Workloads.Bandwidth_prefs;
      Workloads.Transaction_prefs;
    ];
  let t3, sum_best = combiner_table ~quick in
  ( [ t1; t2; t3 ],
    [
      ("every LID run quiesces (Lemma 5)", !quiesced);
      ("quota b = 8 serves a higher mean satisfaction than b = 1 on every family", !grows);
      ("eq. 9's Sum serves the most satisfaction of the three combiners", sum_best);
    ] )

let exp =
  {
    Exp_common.id = "E7";
    title = "Achieved satisfaction across workloads";
    paper_ref = "§1 motivation; eq. 9 combiner";
    run;
  }
