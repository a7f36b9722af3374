(* E7 — the introduction's quality claim in practice: satisfaction
   achieved by LID across topology families, quotas and metric models. *)

module Tbl = Owp_util.Tablefmt

(* the quality profile of a LID run, from its eq. 1 profile *)
let quality (inst : Workloads.instance) (lid : Owp_core.Stack.report) =
  let m = lid.Owp_core.Stack.matching in
  Owp_overlay.Quality.measure inst.prefs m
    (Owp_core.Pipeline.satisfaction_profile inst.prefs m)

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
  ( [ t1; t2 ],
    [
      ("every LID run quiesces (Lemma 5)", !quiesced);
      ("quota b = 8 serves a higher mean satisfaction than b = 1 on every family", !grows);
    ] )

let exp =
  {
    Exp_common.id = "E7";
    title = "Achieved satisfaction across workloads";
    paper_ref = "§1 motivation";
    run;
  }
