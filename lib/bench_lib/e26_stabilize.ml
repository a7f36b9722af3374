(* E26 — self-stabilization under network weather: recovery after heal.

   A fault schedule perturbs a LID run mid-flight — a partition walls
   off a block of nodes, a flapping link comes and goes — and the claim
   under test is Dolev-style self-stabilization: once the last episode
   ends (T_heal), the run quiesces on its own and the served matching
   equals the crash-only LIC reference, with the recovery time
   (quiesce_at - T_heal) as the measured cost.  The ARQ transport plus
   the heal-aware detector (suspect/resume, patience suppression) are
   what make this true: a datagram run would lose the partitioned
   proposals forever.

   Two tables: E26a sweeps partition duration across graph families;
   E26b sweeps flap frequency on one family; the claims are what the
   CI chaos gate mirrors. *)

module Tbl = Owp_util.Tablefmt
module Schedule = Owp_simnet.Schedule
module Run_config = Owp_core.Run_config
module Stabilize = Owp_check.Stabilize

let durations = [ 1.0; 2.0; 4.0; 8.0 ]
let flap_periods = [ 0.5; 1.0; 2.0; 4.0 ]

(* one scheduled run -> its stabilization certificate (present by
   construction: the schedule is non-empty) and the messages it cut *)
let scheduled_run inst sched =
  let cfg = Run_config.make ~engine:Run_config.Lid_reliable ~seed:26 () in
  let r = Chaos.run_one cfg inst.Workloads.prefs sched in
  match r.Chaos.certificate with
  | Some cert -> (cert, r.Chaos.cut)
  | None -> failwith "E26: scheduled run produced no certificate"

let cert_row t ~label ~axis (cert : Stabilize.certificate) cut =
  Tbl.add_row t
    [
      label;
      axis;
      Tbl.fcell2 cert.Stabilize.t_heal;
      Tbl.fcell2 cert.Stabilize.recovery_time;
      Tbl.icell cut;
      Exp_common.yn cert.Stabilize.quiesced;
      Exp_common.yn cert.Stabilize.converged;
      Exp_common.yn (Stabilize.certified cert);
    ]

let cert_table title axis =
  Tbl.create ~title
    [
      ("family", Tbl.Left);
      (axis, Tbl.Right);
      ("T_heal", Tbl.Right);
      ("recovery", Tbl.Right);
      ("cut", Tbl.Right);
      ("quiesced", Tbl.Left);
      ("converged", Tbl.Left);
      ("certified", Tbl.Left);
    ]

let run ~quick =
  let n = if quick then 60 else 200 in
  let mk family =
    Workloads.make ~seed:26 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
  in
  (* E26a: one partition episode, block = first quarter of the nodes,
     starting at t = 2, of growing duration *)
  let t1 =
    cert_table
      (Printf.sprintf
         "E26a: recovery time vs partition duration (LID + ARQ, n = %d, b = 3; \
          block = n/4 nodes partitioned from t = 2)"
         n)
      "partition"
  in
  let block = List.init (n / 4) (fun i -> i) in
  let partition_certs =
    List.map
      (fun family ->
        let inst = mk family in
        ( Workloads.family_name family,
          List.map
            (fun dur ->
              let sched =
                [
                  {
                    Schedule.from_ = 2.0;
                    until = 2.0 +. dur;
                    what = Schedule.Partition [ block ];
                  };
                ]
              in
              (dur, scheduled_run inst sched))
            durations ))
      Workloads.standard_families
  in
  List.iteri
    (fun i (name, rows) ->
      if i > 0 then Tbl.add_separator t1;
      List.iter
        (fun (dur, (cert, cut)) ->
          cert_row t1 ~label:name ~axis:(Tbl.fcell2 dur) cert cut)
        rows)
    partition_certs;
  (* E26b: a flapping backbone — every edge of the first node flaps over
     a fixed [2, 8] window, duty 50%, at growing frequency *)
  let t2 =
    cert_table
      "E26b: recovery time vs flap period (Gnm avg deg 8; node 0's links flap \
       over [2, 8], duty 0.5)"
      "period"
  in
  let inst = mk (Workloads.Gnm_avg_deg 8.0) in
  let flap_links =
    let g = inst.Workloads.graph in
    Array.to_list (Graph.neighbor_nodes g 0)
    |> List.filter_map (fun v -> if v <> 0 then Some (0, v) else None)
  in
  let flap_certs =
    List.map
      (fun period ->
        let sched =
          [
            {
              Schedule.from_ = 2.0;
              until = 8.0;
              what = Schedule.Flap { links = flap_links; period; duty = 0.5 };
            };
          ]
        in
        (period, scheduled_run inst sched))
      flap_periods
  in
  List.iter
    (fun (period, (cert, cut)) ->
      cert_row t2 ~label:"Gnm avg deg 8" ~axis:(Tbl.fcell2 period) cert cut)
    flap_certs;
  (* the claims: what the CI chaos gate re-checks *)
  let all_certs =
    List.concat_map (fun (_, rows) -> List.map (fun (_, (c, _)) -> c) rows)
      partition_certs
    @ List.map (fun (_, (c, _)) -> c) flap_certs
  in
  let all_certified = List.for_all Stabilize.certified all_certs in
  let max_recovery =
    List.fold_left
      (fun acc (c : Stabilize.certificate) -> Float.max acc c.Stabilize.recovery_time)
      0.0 all_certs
  in
  let cuts_bite =
    List.exists
      (fun (_, rows) -> List.exists (fun (_, (_, cut)) -> cut > 0) rows)
      partition_certs
  in
  ( [ t1; t2 ],
    [
      ( "every scheduled run certifies (quiesced + converged to crash-only LIC)",
        all_certified );
      ("partitions actually bite (messages cut on the wire)", cuts_bite);
      ( Printf.sprintf "recovery is bounded: worst over all sweeps is %.2f" max_recovery,
        max_recovery < 1000.0 );
    ] )

let exp =
  {
    Exp_common.id = "E26";
    title = "Self-stabilization: recovery after partitions and flapping links";
    paper_ref = "Dolev, Self-Stabilization (convergence after heal)";
    run;
  }
