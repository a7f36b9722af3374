(* E28 — the rebuilt Simnet hot path at scale: the bucketed event
   wheel + arena-allocated messages against the committed pre-refactor
   heap+Hashtbl baseline (BENCH_E23.json), shard bit-identity through
   the full layer composition, and the 10^6-node LID run.

   Three tables:

   - E28a: LID wall-clock at the E23b sizes.  The baseline columns are
     the committed BENCH_E23.json figures (measured on the same
     machine, same commit range, single core) — the speedup column is
     baseline / wheel.  Wall-clock is min-of-3 with a major collection
     between samples: the shared box's run-to-run variance exceeds the
     phase costs being compared, and the repeatable floor is the
     quantity a data-structure change is answerable for.  The
     "baseline outputs" column asserts byte-identity of the protocol
     results (PROP, REJ, delivered, v-time) against the committed
     anchors: the refactor is only a refactor if the simulation is
     bit-for-bit the one the old heap produced.
   - E28b: shard bit-identity.  Every engine/layer composition —
     faults, scheduled weather over the ARQ transport, guarded
     adversaries, an anytime budget, and all of them at once — run
     with --sim-shards 2, 3 and 4 must reproduce the sequential run's
     full report (matching, every counter, virtual completion time)
     exactly.  Sequence numbers are globally unique, so the per-shard
     wheels merge on (at, seq) without ties and the shard count cannot
     leak into the schedule.
   - E28c (full mode): LID at 10^6 nodes — the scale point the wheel
     re-architecture exists for.  The pre-refactor simulator held a
     Hashtbl entry per in-flight message and a heap entry per event;
     at 8M+ events the constant factors put minutes-scale runs out of
     reach.  One row: n, events, wall, events/sec. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Schedule = Owp_simnet.Schedule
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack

(* ------------------------------------------------------------------ *)
(* E28a: the committed baseline (BENCH_E23.json, commit d2d2b11)       *)
(* ------------------------------------------------------------------ *)

(* the pre-refactor anchors: wall-clock to beat and protocol outputs
   to reproduce exactly.  Hardcoded on purpose — the baseline binary
   no longer exists in the tree, the committed JSON is the record. *)
type anchor = {
  a_n : int;
  a_prop : int;
  a_rej : int;
  a_delivered : int;
  a_vtime : float;
  a_wall_ms : float;
}

let anchors =
  [
    {
      a_n = 10_000;
      a_prop = 92_418;
      a_rej = 51_428;
      a_delivered = 143_846;
      a_vtime = 11.590479;
      a_wall_ms = 641.12;
    };
    {
      a_n = 100_000;
      a_prop = 921_712;
      a_rej = 515_722;
      a_delivered = 1_437_434;
      a_vtime = 12.424454;
      a_wall_ms = 21326.13;
    };
  ]

let e23b_instance n =
  Workloads.make ~seed:23 ~family:(Workloads.Gnm_avg_deg 16.0)
    ~pref_model:Workloads.Random_prefs ~n ~quota:8

(* min-of-k wall-clock: the repeatable floor, not the box's noise *)
let time_floor ~samples f =
  let best = ref infinity and result = ref None in
  for _ = 1 to samples do
    Gc.full_major ();
    let r, ms = Exp_common.time f in
    if ms < !best then best := ms;
    result := Some r
  done;
  (Option.get !result, !best)

let matches_anchor (a : anchor) (r : Stack.report) =
  r.Stack.prop_count = a.a_prop
  && r.Stack.rej_count = a.a_rej
  && r.Stack.delivered = a.a_delivered
  && Float.equal
       (Float.round (r.Stack.completion_time *. 1e6) /. 1e6)
       a.a_vtime

(* ------------------------------------------------------------------ *)
(* E28b: shard bit-identity through the layer compositions             *)
(* ------------------------------------------------------------------ *)

(* everything a Stack run produced that a scheduling difference could
   perturb: the edge set, the counter table (which carries every
   count), the wasted slots, the completion time and the cutoff (floats,
   never NaN, so polymorphic equality is exact) *)
let report_key (r : Stack.report) =
  ( BM.edge_ids r.Stack.matching,
    r.Stack.layers,
    r.Stack.wasted_slots,
    r.Stack.completion_time,
    r.Stack.all_terminated,
    r.Stack.cutoff )

type composition = {
  label : string;
  exec :
    sim_shards:int -> unsafe_lookahead:bool -> Workloads.instance -> Stack.report;
}

let weather =
  [
    { Schedule.from_ = 2.0; until = 5.0; what = Schedule.Burst 0.4 };
    { Schedule.from_ = 4.0; until = 7.0; what = Schedule.Link_down [ (0, 1); (2, 3) ] };
  ]

let compositions =
  let stack ?fifo ?faults ?schedule ?reliable ?deadline ?byz ?guard () =
    {
      label = "";
      exec =
        (fun ~sim_shards ~unsafe_lookahead inst ->
          let n = Graph.node_count inst.Workloads.graph in
          let adversaries =
            Option.map
              (fun spec ->
                let rng = Owp_util.Prng.create 0xE28 in
                Adversary.assign rng ~n (Adversary.parse_spec spec))
              byz
          in
          Stack.run ~seed:28 ?fifo ?faults ?schedule ?reliable ?deadline
            ?adversaries ?guard
            ?prefs:(if byz <> None then Some inst.Workloads.prefs else None)
            ~sim_shards ~unsafe_lookahead inst.Workloads.weights
            ~capacity:inst.Workloads.capacity);
    }
  in
  [
    { (stack ()) with label = "plain LID" };
    {
      (stack ~fifo:false ~faults:(Sim.faults ~drop:0.05 ~duplicate:0.02 ~reorder:0.1 ()) ())
      with label = "channel faults, no FIFO";
    };
    {
      (stack ~faults:(Sim.faults ~drop:0.1 ()) ~reliable:true ~schedule:weather ())
      with label = "ARQ + scheduled weather";
    };
    { (stack ~byz:"liar:0.2" ~guard:true ()) with label = "guarded liars" };
    { (stack ~deadline:4.5 ()) with label = "anytime budget" };
    {
      (stack ~fifo:false ~faults:(Sim.faults ~drop:0.05 ~reorder:0.1 ())
         ~reliable:true ~schedule:weather ~byz:"liar:0.2" ~guard:true ~deadline:6.0 ())
      with label = "all layers at once";
    };
  ]

let shard_instance n =
  Workloads.make ~seed:28 ~family:(Workloads.Gnm_avg_deg 6.0)
    ~pref_model:Workloads.Random_prefs ~n ~quota:3

(* ------------------------------------------------------------------ *)
(* the gate preset: shard determinism (and the lookahead self-test)    *)
(* ------------------------------------------------------------------ *)

type shard_smoke = {
  compositions_checked : int;
  shards_checked : int list;
  identical : bool;
}

(* `owp bench --gate` preset: every composition above, sequential
   reference vs sharded (and, under --inject lookahead, vs the
   deliberately wrong wheel mode, which must diverge and trip the
   gate: a handler sending back into its own open window is exactly
   the per-link FIFO clamp, so the unsafe reorder is guaranteed to
   have material to act on) *)
let shard_gate ?(n = 400) ?(unsafe_lookahead = false) () =
  let inst = shard_instance n in
  let shards_checked = [ 1; 2; 4 ] in
  let identical =
    List.for_all
      (fun c ->
        let reference =
          report_key (c.exec ~sim_shards:1 ~unsafe_lookahead:false inst)
        in
        List.for_all
          (fun s ->
            (* owp-lint: allow float-compare — bit-identity is the property *)
            report_key (c.exec ~sim_shards:s ~unsafe_lookahead inst) = reference)
          shards_checked)
      compositions
  in
  { compositions_checked = List.length compositions; shards_checked; identical }

(* ------------------------------------------------------------------ *)
(* the experiment                                                      *)
(* ------------------------------------------------------------------ *)

let run ~quick =
  (* E28a: wall-clock vs the committed baseline ----------------------- *)
  let sizes = if quick then [ 10_000 ] else [ 10_000; 100_000 ] in
  let samples = 3 in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E28a: LID wall-clock, event wheel vs committed heap+Hashtbl baseline \
            (BENCH_E23.json; E23b configuration, wall = min of %d samples)"
           samples)
      [
        ("n", Tbl.Right);
        ("PROP", Tbl.Right);
        ("REJ", Tbl.Right);
        ("v-time", Tbl.Right);
        ("wheel ms", Tbl.Right);
        ("baseline ms", Tbl.Right);
        ("speedup", Tbl.Right);
        ("events/sec", Tbl.Right);
        ("baseline outputs", Tbl.Left);
      ]
  in
  List.iter
    (fun n ->
      let inst = e23b_instance n in
      let r, wall = time_floor ~samples (fun () -> Exp_common.run_lid inst) in
      let a = List.find (fun a -> a.a_n = n) anchors in
      Tbl.add_row t1
        [
          Tbl.icell n;
          Tbl.icell r.Stack.prop_count;
          Tbl.icell r.Stack.rej_count;
          Tbl.fcell2 r.Stack.completion_time;
          Tbl.fcell2 wall;
          Tbl.fcell2 a.a_wall_ms;
          Printf.sprintf "%.1fx" (a.a_wall_ms /. wall);
          Tbl.icell
            (int_of_float (float_of_int r.Stack.delivered /. (wall /. 1000.0)));
          Exp_common.yn (matches_anchor a r);
        ])
    sizes;

  (* E28b: shard bit-identity ------------------------------------------ *)
  let n = if quick then 200 else 600 in
  let inst = shard_instance n in
  let shard_counts = [ 2; 3; 4 ] in
  let t2 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E28b: --sim-shards bit-identity through the layer compositions \
            (n = %d; full report vs the sequential run)"
           n)
      (("composition", Tbl.Left)
      :: List.map
           (fun s -> (Printf.sprintf "shards=%d" s, Tbl.Left))
           shard_counts)
  in
  List.iter
    (fun c ->
      let reference = report_key (c.exec ~sim_shards:1 ~unsafe_lookahead:false inst) in
      Tbl.add_row t2
        (c.label
        :: List.map
             (fun s ->
               Exp_common.yn
                 (let k =
                    report_key (c.exec ~sim_shards:s ~unsafe_lookahead:false inst)
                  in
                  (* owp-lint: allow float-compare — bit-identity is the property *)
                  k = reference))
             shard_counts))
    compositions;

  (* E28c: the 10^6-node point ----------------------------------------- *)
  if quick then [ t1; t2 ]
  else begin
    let t3 =
      Tbl.create
        ~title:
          "E28c: LID at 10^6 nodes (G(n,m) avg deg 8, b = 8; single run — the \
           scale point the wheel re-architecture targets)"
        [
          ("n", Tbl.Right);
          ("PROP", Tbl.Right);
          ("REJ", Tbl.Right);
          ("delivered", Tbl.Right);
          ("v-time", Tbl.Right);
          ("wall ms", Tbl.Right);
          ("events/sec", Tbl.Right);
          ("quiesced", Tbl.Left);
        ]
    in
    let n = 1_000_000 in
    let inst =
      Workloads.make ~seed:23 ~family:(Workloads.Gnm_avg_deg 8.0)
        ~pref_model:Workloads.Random_prefs ~n ~quota:8
    in
    let r, wall = Exp_common.time (fun () -> Exp_common.run_lid inst) in
    Tbl.add_row t3
      [
        Tbl.icell n;
        Tbl.icell r.Stack.prop_count;
        Tbl.icell r.Stack.rej_count;
        Tbl.icell r.Stack.delivered;
        Tbl.fcell2 r.Stack.completion_time;
        Tbl.fcell2 wall;
        Tbl.icell (int_of_float (float_of_int r.Stack.delivered /. (wall /. 1000.0)));
        Exp_common.quiescence_cell r;
      ];
    [ t1; t2; t3 ]
  end

let exp =
  {
    Exp_common.id = "E28";
    title = "Event-wheel simulator: speedup vs committed baseline, shard identity";
    paper_ref = "scaling the Alg. 1 simulation (arXiv:2410.09965)";
    run;
  }
