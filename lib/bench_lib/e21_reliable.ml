(* E21 — LID over the reliable transport: convergence on a faulty
   network (Lemmas 5-6 restored by ARQ, §7 robustness direction).

   Three regimes:
   - E21a: loss x delivery order.  Plain LID is the baseline and gets
     stuck; the transport-backed variant must terminate with exactly
     LIC's edge set on every row, at a measured retransmission cost.
   - E21b: duplication x adversarial reordering on top of loss.
   - E21c: crash / crash-restart sweeps, where exactness is forfeited
     by design: we measure convergence of the survivors and how much
     satisfaction the fault costs. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Lic = Owp_core.Lic
module Stack = Owp_core.Stack
module Prng = Owp_util.Prng

let run ~quick =
  let n = if quick then 100 else 400 in
  let inst =
    Workloads.make ~seed:21 ~family:(Workloads.Gnm_avg_deg 6.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:2
  in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let lic = Lic.run w ~capacity in
  let lic_sat = Exp_common.total_satisfaction inst.Workloads.prefs lic in

  (* E21a: loss x fifo -------------------------------------------------- *)
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E21a: LID vs reliable LID under message loss (n = %d, avg deg 6, b = 2)" n)
      [
        ("drop", Tbl.Right);
        ("fifo", Tbl.Left);
        ("plain LID", Tbl.Left);
        ("reliable", Tbl.Left);
        ("= LIC", Tbl.Left);
        ("dropped", Tbl.Right);
        ("retrans", Tbl.Right);
        ("overhead", Tbl.Right);
        ("v-time", Tbl.Right);
      ]
  in
  List.iter
    (fun (drop, fifo) ->
      let faults = Sim.faults ~drop () in
      let plain = Stack.run ~seed:3 ~fifo ~faults w ~capacity in
      let r = Stack.run ~seed:3 ~fifo ~faults ~reliable:true w ~capacity in
      Tbl.add_row t1
        [
          Tbl.fcell2 drop;
          Exp_common.yn fifo;
          (if plain.Stack.all_terminated then "terminates" else "STUCK");
          Exp_common.yn r.Stack.all_terminated;
          Exp_common.yn (BM.equal r.Stack.matching lic);
          Tbl.icell r.Stack.dropped;
          Tbl.icell (Stack.counter r ~layer:"transport" "retransmissions");
          Tbl.fcell2 (Stack.overhead r);
          Tbl.fcell2 r.Stack.completion_time;
        ])
    [ (0.0, true); (0.1, true); (0.3, true); (0.0, false); (0.3, false) ];

  (* E21b: duplication x reordering on a lossy link --------------------- *)
  let t2 =
    Tbl.create
      ~title:"E21b: duplication x reordering at drop = 0.2 (non-FIFO delivery)"
      [
        ("duplicate", Tbl.Right);
        ("reorder", Tbl.Right);
        ("reliable", Tbl.Left);
        ("= LIC", Tbl.Left);
        ("dup suppressed", Tbl.Right);
        ("straggled", Tbl.Right);
        ("overhead", Tbl.Right);
      ]
  in
  List.iter
    (fun (dup, reorder) ->
      let faults = Sim.faults ~drop:0.2 ~duplicate:dup ~reorder () in
      let r = Stack.run ~seed:4 ~fifo:false ~faults ~reliable:true w ~capacity in
      Tbl.add_row t2
        [
          Tbl.fcell2 dup;
          Tbl.fcell2 reorder;
          Exp_common.yn r.Stack.all_terminated;
          Exp_common.yn (BM.equal r.Stack.matching lic);
          Tbl.icell (Stack.counter r ~layer:"transport" "dup-suppressed");
          Tbl.icell (Stack.counter r ~layer:"channel" "reordered");
          Tbl.fcell2 (Stack.overhead r);
        ])
    [ (0.0, 0.0); (0.2, 0.0); (0.5, 0.0); (0.0, 0.3); (0.2, 0.3); (0.5, 0.3) ];

  (* E21c: crash / crash-restart ---------------------------------------- *)
  let t3 =
    Tbl.create
      ~title:
        "E21c: crashes at drop = 0.1 (patience = 60; 5 seeds/row; satisfaction \
         vs fault-free LIC)"
      [
        ("crashed %", Tbl.Right);
        ("restart", Tbl.Left);
        ("survivors converged", Tbl.Left);
        ("synthetic REJ", Tbl.Right);
        ("dead links", Tbl.Right);
        ("S retained", Tbl.Right);
        ("v-time", Tbl.Right);
      ]
  in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let faults = Sim.faults ~drop:0.1 () in
  List.iter
    (fun (pct, restart) ->
      (* each trial is self-contained (own PRNG, own simulator), so the
         sweep fans out over the worker pool when --jobs allows *)
      let trials =
        Exp_common.trial_map
          (fun seed ->
            let rng = Prng.create (0xE21 + (997 * seed)) in
            let crashes =
              List.init n (fun v -> v)
              |> List.filter (fun _ -> Prng.bernoulli rng (float_of_int pct /. 100.0))
              |> List.map (fun victim ->
                     let crash_at = 0.1 +. Prng.float rng 5.0 in
                     let restart_at =
                       if restart then Some (crash_at +. 2.0 +. Prng.float rng 8.0)
                       else None
                     in
                     { Stack.victim; crash_at; restart_at })
            in
            let r = Stack.run ~seed ~faults ~reliable:true ~patience:60.0 ~crashes w ~capacity in
            ( r.Stack.all_terminated,
              r.Stack.synthetic_rejects,
              Stack.counter r ~layer:"transport" "dead-links",
              Exp_common.total_satisfaction inst.Workloads.prefs r.Stack.matching,
              r.Stack.completion_time ))
          seeds
      in
      let converged = ref 0 and srej = ref 0 and deadl = ref 0 in
      let sat = ref 0.0 and vtime = ref 0.0 in
      List.iter
        (fun (term, sr, dl, s, vt) ->
          if term then incr converged;
          srej := !srej + sr;
          deadl := !deadl + dl;
          sat := !sat +. s;
          vtime := !vtime +. vt)
        trials;
      let k = List.length seeds in
      Tbl.add_row t3
        [
          Tbl.icell pct;
          Exp_common.yn restart;
          Printf.sprintf "%d/%d" !converged k;
          Tbl.icell (!srej / k);
          Tbl.icell (!deadl / k);
          Tbl.pct (if Float.equal lic_sat 0.0 then 0.0 else !sat /. float_of_int k /. lic_sat);
          Tbl.fcell2 (!vtime /. float_of_int k);
        ])
    [ (0, false); (5, false); (10, false); (20, false); (5, true); (10, true); (20, true) ];
  [ t1; t2; t3 ]

let exp =
  {
    Exp_common.id = "E21";
    title = "Reliable transport: convergence under loss, duplication, reordering, crashes";
    paper_ref = "Lemmas 5-6 + §7 (robustness)";
    run;
  }
