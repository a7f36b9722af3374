(* E19 — anytime behaviour of LID: how quickly does satisfaction
   accumulate in virtual time?  The protocol locks its heaviest
   connections early (locally heaviest edges need no coordination), so
   most of the final satisfaction is in place after a couple of message
   round-trips — the practically interesting "figure" for deployments
   that cannot wait for full quiescence.

   Since the deadline layer landed this is a real serve-at-cutoff
   measurement, not a lock-trace replay: every cell is a budgeted
   Stack.run whose frozen matching goes through the Anytime certificate
   checker — the same instrumentation E25 sweeps and the same path
   `owp run --deadline` serves.  The cells count mutually locked links
   only: a half-lock whose completing PROP is still in flight at the
   cutoff is not served. *)

module Tbl = Owp_util.Tablefmt
module Stack = Owp_core.Stack

let budgets = [ 1.0; 2.0; 3.0; 5.0; 8.0 ]

let run ~quick =
  let n = if quick then 400 else 2000 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E19: satisfaction served at deadline t (LID frozen at cutoff, n = %d, b = 3)"
           n)
      [
        ("family", Tbl.Left);
        ("t=1", Tbl.Right);
        ("t=2", Tbl.Right);
        ("t=3", Tbl.Right);
        ("t=5", Tbl.Right);
        ("t=8", Tbl.Right);
        ("final time", Tbl.Right);
      ]
  in
  List.iter
    (fun family ->
      let inst =
        Workloads.make ~seed:19 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
      in
      let run_budget d =
        Stack.run ~seed:20 ?deadline:d inst.Workloads.weights
          ~capacity:inst.Workloads.capacity
      in
      let full, points =
        Anytime_curves.curve ~prefs:inst.Workloads.prefs ~weights:inst.Workloads.weights
          ~capacity:inst.Workloads.capacity ~budgets run_budget
      in
      Tbl.add_row t
        (Workloads.family_name family
         :: List.map (fun p -> Tbl.pct p.Anytime_curves.retained) points
        @ [ Tbl.fcell2 full.Stack.completion_time ]))
    Workloads.standard_families;
  [ t ]

let exp =
  {
    Exp_common.id = "E19";
    title = "Anytime satisfaction profile";
    paper_ref = "LID dynamics (extension figure)";
    run;
  }
