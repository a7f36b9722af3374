(* E23 — the scale engine: indexed LIC vs the reference selection, LID
   at size, and multicore sweep determinism.

   This experiment starts the repo's measured-performance trajectory
   (BENCH_E23.json).  Three tables:

   - E23a: LIC engines across sizes.  "reference" is Lic.run with the
     genuinely local Climbing rule, whose heaviest_rival rescans both
     endpoints' neighbour lists (O(Δ) per climb step); "sorted" is
     Lic.run's default Heaviest_first, which is the global greedy scan
     Owp_matching.Greedy.run (one sort, then one pass); "indexed" is
     Lic_indexed over per-node lazy-deletion heaps, the lic engine of
     Run_config.  All three must lock the exact same edge set (Lemma 6);
     the speedup column is reference / indexed, the quantity the CI
     bench-smoke gates on.
   - E23b: LID at size — protocol messages, virtual completion time and
     simulator wall-clock, for the rounds/messages trajectory.
   - E23c: seed sweep through the Pool with --jobs 1 vs the configured
     job count; per-trial results must be bit-identical (deterministic
     per-trial PRNG streams), only the wall-clock may differ. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Lic = Owp_core.Lic
module Lic_indexed = Owp_core.Lic_indexed
module Stack = Owp_core.Stack
module Pool = Owp_util.Pool

let instance ~seed ~n ~deg ~quota =
  Workloads.make ~seed ~family:(Workloads.Gnm_avg_deg deg)
    ~pref_model:Workloads.Random_prefs ~n ~quota

type lic_row = {
  n : int;
  m : int;
  reference_ms : float;
  sorted_ms : float;
  indexed_ms : float;
  identical : bool;
}

let speedup r = if r.indexed_ms <= 0.0 then infinity else r.reference_ms /. r.indexed_ms

(* Wall timings on shared CI boxes are noisy; best-of-two with a major
   collection between engines keeps one engine from paying the other's
   allocation debt and reports the repeatable floor, not the noise. *)
let time_best f =
  let measure () =
    (* collect first: freed pages from the previous run go back on the
       allocator's free list, so this run's arrays reuse them instead of
       page-faulting fresh mappings — that fault cost is the single
       largest noise source on the shared CI boxes *)
    Gc.full_major ();
    Exp_common.time f
  in
  let _, a = measure () in
  let r, b = measure () in
  (r, Float.min a b)

(* One size point of E23a; also the measurement behind the CI gate. *)
let measure_lic ~seed ~n ~deg ~quota =
  let inst = instance ~seed ~n ~deg ~quota in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let reference, reference_ms =
    time_best (fun () -> Lic.run ~strategy:Lic.Climbing w ~capacity)
  in
  let sorted, sorted_ms = time_best (fun () -> Lic.run w ~capacity) in
  let indexed, indexed_ms = time_best (fun () -> Lic_indexed.run w ~capacity) in
  {
    n;
    m = Graph.edge_count inst.Workloads.graph;
    reference_ms;
    sorted_ms;
    indexed_ms;
    identical = BM.equal reference indexed && BM.equal sorted indexed;
  }

(* E23c trial: everything the run produced that could reveal a
   scheduling dependence — compared structurally across job counts *)
let sweep_trial ~n ~deg ~quota seed =
  let inst = instance ~seed ~n ~deg ~quota in
  let r = Stack.run ~seed inst.Workloads.weights ~capacity:inst.Workloads.capacity in
  ( seed,
    BM.edge_ids r.Stack.matching,
    r.Stack.prop_count,
    r.Stack.rej_count,
    r.Stack.completion_time )

(* the bit-identity gate: per-trial results must match across worker
   counts, including the virtual completion time, which is a float and
   therefore compared with Float.equal rather than polymorphic [=] *)
let trial_equal (s1, e1, p1, r1, t1) (s2, e2, p2, r2, t2) =
  s1 = s2 && e1 = e2 && p1 = p2 && r1 = r2 && Float.equal t1 t2

let sweeps_identical a b =
  Array.length a = Array.length b && Array.for_all2 trial_equal a b

let run ~quick =
  (* avg degree 48, quota 8: wide neighbour lists and a realistic
     overlay fan-out put the run in the regime the scale engine exists
     for — the reference's O(Δ) rescans dominate (and grow with the
     number of selections) while the indexed engine's O(log Δ) heap
     work barely moves *)
  let deg = 48.0 and quota = 8 in
  let sizes = if quick then [ 10_000; 30_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let lid_cap = if quick then 30_000 else 100_000 in

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
  let lid_rows = ref [] in
  List.iter
    (fun n ->
      (* the 10^6-node point keeps the edge count (not the density)
         growing: deg 8 halves memory pressure at that size *)
      let deg = if n >= 1_000_000 then 8.0 else deg in
      let r = measure_lic ~seed:23 ~n ~deg ~quota in
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
      if n <= lid_cap then begin
        (* E23b tracks protocol cost vs n, not density: moderate degree
           keeps the simulated network affordable at 10^5 nodes *)
        let inst = instance ~seed:23 ~n ~deg:16.0 ~quota in
        let lid, wall =
          Exp_common.time (fun () ->
              Exp_common.run_lid inst)
        in
        lid_rows := (n, lid, wall) :: !lid_rows
      end)
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
        ])
    (List.rev !lid_rows);

  (* E23c: multicore sweep determinism ----------------------------------- *)
  let jobs = max 2 !Exp_common.jobs in
  let seeds = Array.init (if quick then 8 else 16) (fun i -> 100 + i) in
  let sweep_n = if quick then 2_000 else 5_000 in
  let trial = sweep_trial ~n:sweep_n ~deg:8.0 ~quota in
  let serial, serial_ms =
    Exp_common.time (fun () -> Pool.map ~jobs:1 trial seeds)
  in
  let parallel, parallel_ms =
    Exp_common.time (fun () -> Pool.map ~jobs trial seeds)
  in
  let t3 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E23c: seed sweep through the worker pool (%d LID trials, n = %d)"
           (Array.length seeds) sweep_n)
      [
        ("jobs", Tbl.Right);
        ("wall ms", Tbl.Right);
        ("trials", Tbl.Right);
        ("identical to --jobs 1", Tbl.Left);
      ]
  in
  Tbl.add_row t3 [ "1"; Tbl.fcell2 serial_ms; Tbl.icell (Array.length seeds); "-" ];
  Tbl.add_row t3
    [
      Tbl.icell jobs;
      Tbl.fcell2 parallel_ms;
      Tbl.icell (Array.length parallel);
      (if sweeps_identical parallel serial then "yes" else "NO");
    ];
  [ t1; t2; t3 ]

(* CI bench-smoke entry: small enough for a PR gate, large enough that
   the asymptotics (not constant factors) decide *)
type smoke = {
  reference_ms : float;
  indexed_ms : float;
  identical : bool;
  jobs_deterministic : bool;
}

let smoke ?(n = 20_000) ~jobs () =
  let r = measure_lic ~seed:23 ~n ~deg:48.0 ~quota:8 in
  let seeds = Array.init 6 (fun i -> 100 + i) in
  let trial = sweep_trial ~n:1_000 ~deg:8.0 ~quota:3 in
  let serial = Pool.map ~jobs:1 trial seeds in
  let parallel = Pool.map ~jobs:(max 2 jobs) trial seeds in
  {
    reference_ms = r.reference_ms;
    indexed_ms = r.indexed_ms;
    identical = r.identical;
    jobs_deterministic = sweeps_identical parallel serial;
  }

let exp =
  {
    Exp_common.id = "E23";
    title = "Scale engine: indexed LIC, LID at size, multicore sweep determinism";
    paper_ref = "Lemma 6 + scaling (arXiv:2410.09965, arXiv:0812.4893)";
    run;
  }
