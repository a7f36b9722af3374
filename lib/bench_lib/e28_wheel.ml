(* E28 — the rebuilt Simnet hot path at scale: the bucketed event
   wheel + arena-allocated messages against the committed pre-refactor
   heap+Hashtbl baseline (BENCH_E23.json), and the 10^6-node LID run.

   Two tables:

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
   - E28c (full mode): LID at 10^6 nodes — the scale point the wheel
     re-architecture exists for.  The pre-refactor simulator held a
     Hashtbl entry per in-flight message and a heap entry per event;
     at 8M+ events the constant factors put minutes-scale runs out of
     reach.  One row: n, events, wall, events/sec. *)

module Tbl = Owp_util.Tablefmt
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

let matches_anchor (a : anchor) (r : Stack.report) =
  r.Stack.prop_count = a.a_prop
  && r.Stack.rej_count = a.a_rej
  && r.Stack.delivered = a.a_delivered
  && Float.equal
       (Float.round (r.Stack.completion_time *. 1e6) /. 1e6)
       a.a_vtime

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
      let r, t = Exp_common.sample ~k:samples (fun () () -> Exp_common.run_lid inst) in
      let wall = t.Exp_common.min in
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

  (* E28c: the 10^6-node point ----------------------------------------- *)
  if quick then [ t1 ]
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
    [ t1; t3 ]
  end

let exp =
  {
    Exp_common.id = "E28";
    title = "Event-wheel simulator: speedup vs committed baseline";
    paper_ref = "scaling the Alg. 1 simulation (arXiv:2410.09965)";
    run;
  }
