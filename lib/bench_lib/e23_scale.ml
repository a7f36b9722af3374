(* E23 — the scale engine: indexed LIC vs the reference selection and
   LID at size.

   This experiment starts the repo's measured-performance trajectory
   (BENCH_E23.json).  Five tables:

   - E23a: LIC engines across sizes.  "reference" is Lic.run with the
     genuinely local Climbing rule, whose heaviest_rival rescans both
     endpoints' neighbour lists (O(Δ) per climb step); "sorted" is
     Lic.run's default Heaviest_first, which is the global greedy scan
     Owp_matching.Greedy.run (one sort, then one pass); "indexed" is
     Lic_indexed over per-node lazy-deletion heaps, the lic engine of
     Run_config.  All three must lock the exact same edge set (Lemma 6);
     the speedup column is reference / indexed.
   - E23b: LID at size — protocol messages, virtual completion time and
     simulator wall-clock, for the rounds/messages trajectory.  The
     "baseline outputs" column compares the protocol results with the
     committed anchors below; full mode adds the 10^6-node point.
   - E23d: instance build by phase (Gen.gnm, Preference.random,
     Weights.of_preference) next to the lic engine's wall on the built
     instance, min and IQR of k samples: the set-up cost users pay
     before any engine runs.
   - E23e: the checker registry on the same instance, each checker
     alone and the whole registry, next to the lic engine's wall, min
     and IQR of k samples: what `owp check` adds to a run.
   - E23f: the LID engine on the same instance split by phase in a bare
     loop (weight lists, bootstrap burst, Simnet run, read-out), next
     to Stack.run with no layer enabled, min, median and IQR of k
     samples: what the protocol stack adds over plain Algorithm 1. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Lic = Owp_core.Lic
module Lic_indexed = Owp_core.Lic_indexed
module Stack = Owp_core.Stack
module Lid = Owp_core.Lid
module Simnet = Owp_simnet.Simnet

type lic_row = {
  n : int;
  m : int;
  reference_ms : float;
  sorted_ms : float;
  indexed_ms : float;
  identical : bool;
}

let speedup r = if r.indexed_ms <= 0.0 then infinity else r.reference_ms /. r.indexed_ms

(* One size point of E23a.  Wall timings on shared CI boxes are noisy;
   best-of-two with a major collection between engines keeps one engine
   from paying the other's allocation debt and reports the repeatable
   floor, not the noise. *)
let measure_lic ~seed ~n ~deg ~quota =
  let inst = Exp_common.gnm ~seed ~n ~deg ~quota in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let best_of_two f = Exp_common.sample ~k:2 (fun () -> f) in
  let reference, reference_t =
    best_of_two (fun () -> Lic.run ~strategy:Lic.Climbing w ~capacity)
  in
  let sorted, sorted_t = best_of_two (fun () -> Lic.run w ~capacity) in
  let indexed, indexed_t = best_of_two (fun () -> Lic_indexed.run w ~capacity) in
  {
    n;
    m = Graph.edge_count inst.Workloads.graph;
    reference_ms = reference_t.Exp_common.min;
    sorted_ms = sorted_t.Exp_common.min;
    indexed_ms = indexed_t.Exp_common.min;
    identical = BM.equal reference indexed && BM.equal sorted indexed;
  }

(* E23b's committed protocol outputs, per size: PROP, REJ, delivered
   and the virtual completion time, rounded to 1 / [a_scale].  Hardcoded
   on purpose: a simulator change is only a refactor if it reproduces
   them bit for bit.  10^4 and 10^5 are the pre-event-wheel figures
   (BENCH_E23.json, commit d2d2b11, six decimals); 10^6 is the deg-8
   point (BENCH_E28.json, two decimals). *)
type anchor = {
  a_prop : int;
  a_rej : int;
  a_delivered : int;
  a_vtime : float;
  a_scale : float;
}

let anchors =
  [
    ( 10_000,
      { a_prop = 92_418; a_rej = 51_428; a_delivered = 143_846; a_vtime = 11.590479;
        a_scale = 1e6 } );
    ( 100_000,
      { a_prop = 921_712; a_rej = 515_722; a_delivered = 1_437_434; a_vtime = 12.424454;
        a_scale = 1e6 } );
    ( 1_000_000,
      { a_prop = 7_051_110; a_rej = 879_419; a_delivered = 7_930_529; a_vtime = 8.89;
        a_scale = 1e2 } );
  ]

let matches_anchor a (r : Stack.report) =
  r.Stack.prop_count = a.a_prop
  && r.Stack.rej_count = a.a_rej
  && r.Stack.delivered = a.a_delivered
  && Float.equal (Float.round (r.Stack.completion_time *. a.a_scale) /. a.a_scale) a.a_vtime

(* the "baseline outputs" cell: "-" at a size without an anchor *)
let baseline_cell n r =
  match List.assoc_opt n anchors with
  | None -> "-"
  | Some a -> Exp_common.yn (matches_anchor a r)

(* E23d: one size point.  The E23b instance is rebuilt from its seed
   phase by phase, as Workloads.make does, and each phase is sampled
   alone; a major collection before each sample keeps one phase from
   paying another's debt. *)
let build_samples = 5

let measure_build ~seed ~n ~deg ~quota =
  let sample setup = Exp_common.sample ~k:build_samples setup in
  let m = min (n * (n - 1) / 2) (int_of_float (float_of_int n *. deg /. 2.0)) in
  let (g, rng), gnm =
    sample (fun () () ->
        let rng = Owp_util.Prng.create seed in
        (Gen.gnm rng ~n ~m, rng))
  in
  (* each sample draws the preferences from a copy of the generator's
     stream, as Workloads.make does right after the graph *)
  let prefs, prefs_t =
    sample (fun () ->
        let rng = Owp_util.Prng.copy rng in
        fun () -> Preference.random rng g ~quota:(Preference.uniform_quota g quota))
  in
  let w, weights = sample (fun () () -> Weights.of_preference prefs) in
  let capacity = Array.init n (Preference.quota prefs) in
  let _, lic = sample (fun () () -> Lic_indexed.run w ~capacity) in
  (Graph.edge_count g, gnm, prefs_t, weights, lic)

(* E23e: one size point.  The matching is the lic engine's.  Every
   sample wraps it in a fresh Checker.instance per timed call, outside
   the timer, so each checker pays for the shared accounting it forces,
   as it would running alone. *)
let measure_check ~seed ~n ~deg ~quota =
  let inst = Exp_common.gnm ~seed ~n ~deg ~quota in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let prefs = inst.Workloads.prefs in
  let matching = Lic_indexed.run w ~capacity in
  let sample setup = snd (Exp_common.sample ~k:build_samples setup) in
  let checkers only =
    sample (fun () ->
        let ci = Owp_check.Checker.of_matching ~prefs w matching in
        fun () -> ignore (Owp_check.Checker.run ?only ci))
  in
  ( Graph.edge_count inst.Workloads.graph,
    List.map (fun name -> (name, checkers (Some [ name ]))) Owp_check.Checker.names
    @ [
        ("registry", checkers None);
        ("lic", sample (fun () () -> ignore (Lic_indexed.run w ~capacity)));
      ] )

let check_table ~quota sizes =
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E23e: checker registry on the E23b instance's lic matching (G(n,m) avg deg 16, b \
            = %d; each checker alone, then the whole registry; min and IQR of %d samples, ms)"
           quota build_samples)
      [
        ("n", Tbl.Right);
        ("m", Tbl.Right);
        ("checker", Tbl.Left);
        ("ms", Tbl.Right);
        ("IQR", Tbl.Right);
        ("/ lic", Tbl.Right);
      ]
  in
  List.iter
    (fun n ->
      let m, phases = measure_check ~seed:23 ~n ~deg:16.0 ~quota in
      let lic = (List.assoc "lic" phases).Exp_common.min in
      List.iter
        (fun (name, (x : Exp_common.spread)) ->
          Tbl.add_row t
            [
              Tbl.icell n;
              Tbl.icell m;
              name;
              Tbl.fcell2 x.min;
              Tbl.fcell2 x.iqr;
              Printf.sprintf "%.2fx" (x.min /. lic);
            ])
        phases)
    sizes;
  t

(* E23f: one size point.  LID runs on the E23b instance in a bare
   loop, Lid over Simnet with nothing in between, at Stack.run's
   defaults (engine seed = hash of the label, uniform delays in
   [0.5, 1.5], FIFO links).  Each phase is sampled alone, on a state
   brought up to it off the clock: [init] builds the weight lists,
   [start] sends the bootstrap burst into the simulator, [simnet run]
   delivers every message to Lid.deliver, [read-out] turns the locked
   edges into the served matching.  [bare loop] times the four in one
   go, and Stack.run on the same instance must lock the same edges. *)
let measure_lid ~seed ~n ~quota =
  let inst = Exp_common.gnm ~seed ~n ~deg:16.0 ~quota in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let g = inst.Workloads.graph and engine_seed = Hashtbl.hash inst.Workloads.label in
  let sample setup = Exp_common.sample ~k:build_samples setup in
  let init () =
    let st = Lid.init w ~capacity in
    let net =
      Simnet.create ~seed:engine_seed ~nodes:(max n 1) ~delay:(Simnet.Uniform (0.5, 1.5)) ()
    in
    let emit src dst m = Simnet.send net ~src ~dst m in
    Simnet.set_handler net (fun ~src ~dst m -> Lid.deliver st ~src ~dst m ~emit);
    (st, net, emit)
  in
  let started () =
    let st, net, emit = init () in
    Lid.start st ~emit;
    (st, net)
  in
  let read_out st = BM.of_edge_ids g ~capacity (Lid.locked_edge_ids st) in
  let _, init_t = sample (fun () () -> Lid.init w ~capacity) in
  let _, start_t =
    sample (fun () ->
        let st, _, emit = init () in
        fun () -> Lid.start st ~emit)
  in
  let st, run_t =
    sample (fun () ->
        let st, net = started () in
        fun () ->
          Simnet.run net;
          st)
  in
  let read, read_t = sample (fun () () -> read_out st) in
  let bare, bare_t =
    sample (fun () () ->
        let st, net = started () in
        Simnet.run net;
        read_out st)
  in
  let r, stack_t = sample (fun () () -> Stack.run ~seed:engine_seed w ~capacity) in
  ( Graph.edge_count g,
    BM.equal read r.Stack.matching && BM.equal bare r.Stack.matching,
    [
      ("init", init_t);
      ("start", start_t);
      ("simnet run", run_t);
      ("read-out", read_t);
      ("bare loop", bare_t);
      ("Stack.run", stack_t);
    ] )

let lid_table ~quota sizes =
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E23f: LID by phase on the E23b instance (G(n,m) avg deg 16, b = %d; bare Lid + \
            Simnet loop, then Stack.run with no layer; min, median and IQR of %d samples, ms)"
           quota build_samples)
      [
        ("n", Tbl.Right);
        ("m", Tbl.Right);
        ("phase", Tbl.Left);
        ("min", Tbl.Right);
        ("median", Tbl.Right);
        ("IQR", Tbl.Right);
        ("/ bare", Tbl.Right);
        ("same edges", Tbl.Left);
      ]
  in
  let all_same = ref true in
  List.iter
    (fun n ->
      let m, same, phases = measure_lid ~seed:23 ~n ~quota in
      all_same := !all_same && same;
      let bare = (List.assoc "bare loop" phases).Exp_common.min in
      List.iter
        (fun (name, (x : Exp_common.spread)) ->
          Tbl.add_row t
            [
              Tbl.icell n;
              Tbl.icell m;
              name;
              Tbl.fcell2 x.min;
              Tbl.fcell2 x.median;
              Tbl.fcell2 x.iqr;
              Printf.sprintf "%.2fx" (x.min /. bare);
              Exp_common.yn same;
            ])
        phases)
    sizes;
  (t, !all_same)

let run ~quick =
  (* avg degree 48, quota 8: wide neighbour lists and a realistic
     overlay fan-out put the run in the regime the scale engine exists
     for — the reference's O(Δ) rescans dominate (and grow with the
     number of selections) while the indexed engine's O(log Δ) heap
     work barely moves *)
  let deg = 48.0 and quota = 8 in
  let sizes = if quick then [ 10_000; 30_000 ] else [ 10_000; 100_000; 1_000_000 ] in

  (* E23a: LIC engines ------------------------------------------------- *)
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E23a: LIC selection engines (G(n,m) avg deg %.0f, b = %d; reference = \
            Climbing rescans, indexed = per-node heaps)"
           deg quota)
      [
        ("n", Tbl.Right);
        ("m", Tbl.Right);
        ("reference ms", Tbl.Right);
        ("sorted ms", Tbl.Right);
        ("indexed ms", Tbl.Right);
        ("speedup", Tbl.Right);
        ("same edges", Tbl.Left);
      ]
  in
  let lid_rows = ref [] and engines_agree = ref true in
  List.iter
    (fun n ->
      (* the 10^6-node point keeps the edge count (not the density)
         growing: deg 8 halves memory pressure at that size *)
      let big = n >= 1_000_000 in
      let r = measure_lic ~seed:23 ~n ~deg:(if big then 8.0 else deg) ~quota in
      engines_agree := !engines_agree && r.identical;
      Tbl.add_row t1
        [
          Tbl.icell r.n;
          Tbl.icell r.m;
          Tbl.fcell2 r.reference_ms;
          Tbl.fcell2 r.sorted_ms;
          Tbl.fcell2 r.indexed_ms;
          Printf.sprintf "%.1fx" (speedup r);
          (if r.identical then "yes" else "NO");
        ];
      (* E23b tracks protocol cost vs n, not density: moderate degree
         keeps the simulated network affordable at 10^5 nodes, and the
         10^6 point runs E23a's deg-8 instance *)
      let inst = Exp_common.gnm ~seed:23 ~n ~deg:(if big then 8.0 else 16.0) ~quota in
      let lid, wall = Exp_common.time (fun () -> Exp_common.run_lid inst) in
      lid_rows := (n, lid, wall) :: !lid_rows)
    sizes;

  (* E23b: LID at size -------------------------------------------------- *)
  let t2 =
    Tbl.create ~title:"E23b: LID protocol cost at size (simulated network)"
      [
        ("n", Tbl.Right);
        ("PROP", Tbl.Right);
        ("REJ", Tbl.Right);
        ("msgs/node", Tbl.Right);
        ("v-time", Tbl.Right);
        ("sim wall ms", Tbl.Right);
        ("quiesced", Tbl.Left);
        ("baseline outputs", Tbl.Left);
      ]
  in
  List.iter
    (fun (n, (r : Owp_core.Stack.report), wall) ->
      Tbl.add_row t2
        [
          Tbl.icell n;
          Tbl.icell r.Stack.prop_count;
          Tbl.icell r.Stack.rej_count;
          Tbl.fcell2 (float_of_int (r.Stack.prop_count + r.Stack.rej_count) /. float_of_int n);
          Tbl.fcell2 r.Stack.completion_time;
          Tbl.fcell2 wall;
          Exp_common.quiescence_cell r;
          baseline_cell n r;
        ])
    (List.rev !lid_rows);

  (* E23d: instance build by phase ---------------------------------------- *)
  let t3 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E23d: instance build by phase (E23b instance, G(n,m) avg deg 16, b = %d; min and \
            IQR of %d samples, ms)"
           quota build_samples)
      [
        ("n", Tbl.Right);
        ("m", Tbl.Right);
        ("gnm", Tbl.Right);
        ("gnm IQR", Tbl.Right);
        ("prefs", Tbl.Right);
        ("prefs IQR", Tbl.Right);
        ("weights", Tbl.Right);
        ("weights IQR", Tbl.Right);
        ("build", Tbl.Right);
        ("lic", Tbl.Right);
        ("lic IQR", Tbl.Right);
        ("build / lic", Tbl.Right);
      ]
  in
  List.iter
    (fun n ->
      let m, gnm, prefs, weights, lic = measure_build ~seed:23 ~n ~deg:16.0 ~quota in
      let module X = Exp_common in
      let build = gnm.X.min +. prefs.X.min +. weights.X.min in
      let cells t = [ Tbl.fcell2 t.X.min; Tbl.fcell2 t.X.iqr ] in
      Tbl.add_row t3
        ([ Tbl.icell n; Tbl.icell m ]
        @ cells gnm @ cells prefs @ cells weights
        @ (Tbl.fcell2 build :: cells lic)
        @ [ Printf.sprintf "%.2fx" (build /. lic.X.min) ]))
    [ 10_000; 100_000 ];
  let t4 = check_table ~quota (if quick then [ 10_000 ] else [ 10_000; 100_000 ]) in
  let t5, bare_same = lid_table ~quota (if quick then [ 10_000 ] else [ 10_000; 100_000 ]) in
  let replays (n, r, _) = Option.map (fun a -> matches_anchor a r) (List.assoc_opt n anchors) in
  let anchored = List.filter_map replays !lid_rows in
  ( [ t1; t2; t3; t4; t5 ],
    [
      ("the three LIC engines lock the same edge set at every size (Lemma 6)", !engines_agree);
      ( "LID quiesces at every E23b size (Lemma 5)",
        List.for_all (fun (_, (r : Stack.report), _) -> r.Stack.all_terminated) !lid_rows );
      ( "every anchored E23b row replays its anchors (at least one row)",
        anchored <> [] && List.for_all Fun.id anchored );
      ("the bare LID loop and Stack.run lock the same edges", bare_same);
    ] )

let exp =
  {
    Exp_common.id = "E23";
    title = "Scale engine: indexed LIC, LID at size";
    paper_ref = "Lemma 6 + scaling (arXiv:2410.09965, arXiv:0812.4893)";
    run;
  }
