(* E25 — deadline-bounded anytime LID: what does serve-at-cutoff cost?

   The deadline layer freezes a feasible partial matching at the budget
   instead of waiting for quiescence; this experiment sweeps the budget
   axis and shows that degradation is graceful — satisfaction retained
   against the unbudgeted reference grows monotonically, residual
   blocking pairs shrink, and there is no cliff where the protocol is
   worthless below some threshold (Floréen et al. 0812.4893: truncated
   local matching still carries most of the payoff).

   Three tables: E25a sweeps budgets across the graph families on the
   clean stack; E25b replays the sweep under a lossy reordering channel
   masked by the ARQ transport and under guarded 20% weight-liars (the
   reference of each curve is the unbudgeted run of the SAME stack, so
   the comparison is relativized exactly like E22/E24); E25c is the
   acceptance table the CI anytime gate mirrors. *)

module Tbl = Owp_util.Tablefmt
module Sim = Owp_simnet.Simnet
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack
module AC = Anytime_curves

let budgets = [ 1.0; 2.0; 3.0; 5.0; 8.0 ]

(* lossy channels stretch the round trip, so the faulty sweeps get a
   proportionally longer axis *)
let fault_budgets = [ 2.0; 4.0; 6.0; 10.0; 16.0 ]

let curve_rows t ~label (points : AC.point list) =
  List.iter
    (fun (p : AC.point) ->
      Tbl.add_row t
        [
          label;
          Tbl.fcell2 p.AC.budget;
          Tbl.pct p.AC.retained;
          Tbl.pct p.AC.weight_retained;
          Tbl.icell p.AC.blocking_pairs;
          Tbl.icell p.AC.served_edges;
          Exp_common.yn p.AC.certified;
        ])
    points

let run ~quick =
  let n = if quick then 80 else 300 in
  let mk family = Workloads.make ~seed:25 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3 in
  let sweep inst run_budget ~budgets =
    AC.curve ~prefs:inst.Workloads.prefs ~weights:inst.Workloads.weights
      ~capacity:inst.Workloads.capacity ~budgets run_budget
  in
  (* E25a: clean stack, one curve per family *)
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E25a: satisfaction/blocking pairs vs deadline budget (LID frozen at \
            cutoff, n = %d, b = 3; retained vs the unbudgeted run)"
           n)
      [
        ("family", Tbl.Left);
        ("budget", Tbl.Right);
        ("S retained", Tbl.Right);
        ("W retained", Tbl.Right);
        ("blocking", Tbl.Right);
        ("links", Tbl.Right);
        ("certified", Tbl.Left);
      ]
  in
  let family_curves =
    List.map
      (fun family ->
        let inst = mk family in
        let _, points =
          sweep inst ~budgets (fun d ->
              Stack.run ~seed:25 ?deadline:d inst.Workloads.weights
                ~capacity:inst.Workloads.capacity)
        in
        (Workloads.family_name family, points))
      Workloads.standard_families
  in
  List.iteri
    (fun i (name, points) ->
      if i > 0 then Tbl.add_separator t1;
      curve_rows t1 ~label:name points)
    family_curves;
  (* E25b: the same sweep under adverse layers — each curve relative to
     the unbudgeted run of its own stack *)
  let t2 =
    Tbl.create
      ~title:
        "E25b: the sweep under adverse layers (drop = 0.1 + reorder = 0.3 with \
         ARQ; guarded 20% weight-liars), Gnm avg deg 8"
      [
        ("stack", Tbl.Left);
        ("budget", Tbl.Right);
        ("S retained", Tbl.Right);
        ("W retained", Tbl.Right);
        ("blocking", Tbl.Right);
        ("links", Tbl.Right);
        ("certified", Tbl.Left);
      ]
  in
  let inst = mk (Workloads.Gnm_avg_deg 8.0) in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.3 () in
  let _, faulty =
    sweep inst ~budgets:fault_budgets (fun d ->
        Stack.run ~seed:25 ~fifo:false ~faults ~reliable:true ?deadline:d
          inst.Workloads.weights ~capacity:inst.Workloads.capacity)
  in
  let adversaries =
    Adversary.assign (Owp_util.Prng.create 0xE25) ~n (Adversary.parse_spec "liar:0.2")
  in
  let _, guarded =
    sweep inst ~budgets (fun d ->
        Stack.run ~seed:25 ~adversaries ~guard:true ~prefs:inst.Workloads.prefs
          ?deadline:d inst.Workloads.weights ~capacity:inst.Workloads.capacity)
  in
  curve_rows t2 ~label:"drop+reorder, ARQ" faulty;
  Tbl.add_separator t2;
  curve_rows t2 ~label:"liar:0.2, guard" guarded;
  (* E25c: acceptance — the claims the CI anytime gate re-checks *)
  let all_points =
    List.concat_map snd family_curves @ faulty @ guarded
  in
  let plain_monotone = List.for_all (fun (_, ps) -> AC.monotone ps) family_curves in
  let mid_payoff =
    List.for_all
      (fun (_, ps) ->
        match List.find_opt (fun (p : AC.point) -> Float.equal p.AC.budget 3.0) ps with
        | Some p -> p.AC.retained >= 0.5
        | None -> false)
      family_curves
  in
  let worst_step =
    List.fold_left
      (fun acc ps -> Float.max acc (AC.max_step ps))
      (AC.max_step faulty)
      (guarded :: List.map snd family_curves)
  in
  let t3 =
    Tbl.create ~title:"E25c: acceptance" [ ("claim", Tbl.Left); ("holds", Tbl.Left) ]
  in
  Tbl.add_rows t3
    [
      [
        "every budgeted run certifies (feasible + prefix of its full run)";
        Exp_common.yn (AC.all_certified all_points);
      ];
      [
        "satisfaction monotone in the budget on every family (fixed seed)";
        Exp_common.yn plain_monotone;
      ];
      [
        "adverse sweeps stay monotone (ARQ channel, guarded liars)";
        Exp_common.yn (AC.monotone faulty && AC.monotone guarded);
      ];
      [ "half the payoff is served by t = 3 on every family"; Exp_common.yn mid_payoff ];
      [
        Printf.sprintf
          "no cliff: largest per-step jump is %.1f%% of the full payoff"
          (100.0 *. worst_step);
        Exp_common.yn (worst_step < 1.0);
      ];
    ];
  [ t1; t2; t3 ]

(* the trimmed preset behind `owp bench --deadline T`: budgets climbing
   to T on one small instance; the gate demands certification at every
   budget and monotone satisfaction *)
type smoke_result = {
  curve : AC.point list;
  certified : bool;
  monotone : bool;
}

let smoke ?(deadline = 8.0) () =
  let inst =
    Workloads.make ~seed:25 ~family:(Workloads.Gnm_avg_deg 6.0)
      ~pref_model:Workloads.Random_prefs ~n:60 ~quota:2
  in
  let budgets =
    List.map (fun f -> f *. deadline) [ 0.25; 0.5; 0.75; 1.0 ]
  in
  let _, points =
    AC.curve ~prefs:inst.Workloads.prefs ~weights:inst.Workloads.weights
      ~capacity:inst.Workloads.capacity ~budgets (fun d ->
        Stack.run ~seed:25 ?deadline:d inst.Workloads.weights
          ~capacity:inst.Workloads.capacity)
  in
  { curve = points; certified = AC.all_certified points; monotone = AC.monotone points }

let exp =
  {
    Exp_common.id = "E25";
    title = "Deadline-bounded anytime LID: serve-at-cutoff degradation";
    paper_ref = "Floreen et al. 0812.4893 (anytime local matching)";
    run;
  }
