(* E25 — deadline-bounded anytime LID: what does serve-at-cutoff cost?

   The deadline layer freezes a feasible partial matching at the budget
   instead of waiting for quiescence; this experiment sweeps the budget
   axis and shows that degradation is graceful — satisfaction retained
   against the unbudgeted reference grows monotonically, residual
   blocking pairs shrink, and there is no cliff where the protocol is
   worthless below some threshold (Floréen et al. 0812.4893: truncated
   local matching still carries most of the payoff).  LID locks its
   heaviest connections early (locally heaviest edges need no
   coordination), so most of the final satisfaction is in place after a
   couple of message round-trips.

   Every point is a budgeted Stack.run whose frozen matching goes
   through the Anytime certificate checker — the same path `owp run
   --deadline` serves.  Points count mutually locked links only: a
   half-lock whose completing PROP is still in flight at the cutoff is
   not served.

   Two tables: E25a sweeps budgets across the graph families on the
   clean stack, with the virtual time the unbudgeted run quiesces at;
   E25b replays the sweep under a lossy reordering channel masked by
   the ARQ transport and under guarded 20% weight-liars (the reference
   of each curve is the unbudgeted run of the SAME stack, so the
   comparison is relativized exactly like E24's adversary rows); the
   claims judge both. *)

module Tbl = Owp_util.Tablefmt
module Sim = Owp_simnet.Simnet
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack
module A = Owp_check.Anytime
module BM = Owp_matching.Bmatching

type point = {
  budget : float;
  retained : float;  (* satisfaction ratio vs the full run, in [0,1] *)
  weight_retained : float;
  blocking_pairs : int;
  served_edges : int;
  certified : bool;  (* feasible and a prefix of the full run *)
}

(* [curve inst ~budgets run] calls [run None] once for the unbudgeted
   reference (returned alongside the points so callers can report its
   completion time) and [run (Some b)] per budget; the closure owns
   every layer flag so one helper serves plain, faulty, reliable and
   guarded-Byzantine stacks alike. *)
let curve (inst : Workloads.instance) ~budgets (run : float option -> Stack.report) =
  let full = run None in
  let reference = BM.edge_ids full.Stack.matching in
  ( full,
    List.map
      (fun budget ->
        let r = run (Some budget) in
        let cert =
          A.check
            (A.instance ~prefs:inst.Workloads.prefs ~reference inst.Workloads.weights
               ~capacity:inst.Workloads.capacity ~budget
               ~edges:(BM.edge_ids r.Stack.matching))
        in
        {
          budget;
          retained = Option.value cert.A.satisfaction_retained ~default:1.0;
          weight_retained = Option.value cert.A.weight_retained ~default:1.0;
          blocking_pairs = cert.A.blocking_pairs;
          served_edges = cert.A.matched_edges;
          certified = A.certified cert;
        })
      budgets )

(* satisfaction non-decreasing along the budget axis, up to float noise:
   what the graceful-degradation claims check *)
let monotone points =
  let rec go = function
    | a :: (b :: _ as rest) -> a.retained <= b.retained +. 1e-9 && go rest
    | _ -> true
  in
  go points

let all_certified points = List.for_all (fun p -> p.certified) points

(* largest satisfaction jump between adjacent budgets — the "cliff"
   statistic: graceful curves keep it well below the whole payoff *)
let max_step points =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (Float.max acc (b.retained -. a.retained)) rest
    | _ -> acc
  in
  go 0.0 points

let budgets = [ 1.0; 2.0; 3.0; 5.0; 8.0 ]

(* lossy channels stretch the round trip, so the faulty sweeps get a
   proportionally longer axis *)
let fault_budgets = [ 2.0; 4.0; 6.0; 10.0; 16.0 ]

let columns first =
  [
    (first, Tbl.Left);
    ("budget", Tbl.Right);
    ("S retained", Tbl.Right);
    ("W retained", Tbl.Right);
    ("blocking", Tbl.Right);
    ("links", Tbl.Right);
    ("certified", Tbl.Left);
  ]

let curve_rows t ~label ?(extra = []) points =
  List.iter
    (fun p ->
      Tbl.add_row t
        ([
           label;
           Tbl.fcell2 p.budget;
           Tbl.pct p.retained;
           Tbl.pct p.weight_retained;
           Tbl.icell p.blocking_pairs;
           Tbl.icell p.served_edges;
           Exp_common.yn p.certified;
         ]
        @ extra))
    points

let run ~quick =
  (* E25a: clean stack, one curve per family *)
  let n = if quick then 400 else 2000 in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E25a: satisfaction/blocking pairs vs deadline budget (LID frozen at \
            cutoff, n = %d, b = 3; retained vs the unbudgeted run, which quiesces \
            at the final time)"
           n)
      (columns "family" @ [ ("final time", Tbl.Right) ])
  in
  let family_curves =
    List.map
      (fun family ->
        let inst =
          Workloads.make ~seed:19 ~family ~pref_model:Workloads.Random_prefs ~n ~quota:3
        in
        let full, points =
          curve inst ~budgets (fun d ->
              Stack.run ~seed:20 ?deadline:d inst.Workloads.weights
                ~capacity:inst.Workloads.capacity)
        in
        (Workloads.family_name family, full, points))
      Workloads.standard_families
  in
  List.iteri
    (fun i (name, full, points) ->
      if i > 0 then Tbl.add_separator t1;
      curve_rows t1 ~label:name ~extra:[ Tbl.fcell2 full.Stack.completion_time ] points)
    family_curves;
  let family_curves = List.map (fun (_, _, points) -> points) family_curves in
  (* E25b: the same sweep under adverse layers — each curve relative to
     the unbudgeted run of its own stack *)
  let t2 =
    Tbl.create
      ~title:
        "E25b: the sweep under adverse layers (drop = 0.1 + reorder = 0.3 with \
         ARQ; guarded 20% weight-liars), Gnm avg deg 8"
      (columns "stack")
  in
  let n = if quick then 80 else 300 in
  let inst = Exp_common.gnm ~seed:25 ~deg:8.0 ~n ~quota:3 in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.3 () in
  let _, faulty =
    curve inst ~budgets:fault_budgets (fun d ->
        Stack.run ~seed:25 ~fifo:false ~faults ~reliable:true ?deadline:d
          inst.Workloads.weights ~capacity:inst.Workloads.capacity)
  in
  let adversaries =
    Adversary.assign (Owp_util.Prng.create 0xE25) ~n (Adversary.parse_spec "liar:0.2")
  in
  let _, guarded =
    curve inst ~budgets (fun d ->
        Stack.run ~seed:25 ~adversaries ~guard:true ~prefs:inst.Workloads.prefs
          ?deadline:d inst.Workloads.weights ~capacity:inst.Workloads.capacity)
  in
  curve_rows t2 ~label:"drop+reorder, ARQ" faulty;
  Tbl.add_separator t2;
  curve_rows t2 ~label:"liar:0.2, guard" guarded;
  (* the claims *)
  let all_points = List.concat family_curves @ faulty @ guarded in
  let mid_payoff =
    List.for_all
      (fun ps ->
        match List.find_opt (fun p -> Float.equal p.budget 3.0) ps with
        | Some p -> p.retained >= 0.5
        | None -> false)
      family_curves
  in
  let worst_step =
    List.fold_left
      (fun acc ps -> Float.max acc (max_step ps))
      (max_step faulty) (guarded :: family_curves)
  in
  ( [ t1; t2 ],
    [
      ( "every budgeted run certifies (feasible + prefix of its full run)",
        all_certified all_points );
      ( "satisfaction monotone in the budget on every family (fixed seed)",
        List.for_all monotone family_curves );
      ( "adverse sweeps stay monotone (ARQ channel, guarded liars)",
        monotone faulty && monotone guarded );
      ("half the payoff is served by t = 3 on every family", mid_payoff);
      ( Printf.sprintf "no cliff: largest per-step jump is %.1f%% of the full payoff"
          (100.0 *. worst_step),
        worst_step < 1.0 );
    ] )

let exp =
  {
    Exp_common.id = "E25";
    title = "Deadline-bounded anytime LID: serve-at-cutoff degradation";
    paper_ref = "Floreen et al. 0812.4893 (anytime local matching)";
    run;
  }
