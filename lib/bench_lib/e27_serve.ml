(* E27 — overlay-as-a-service: the serving engine under sustained
   traffic.

   The paper's algorithms build one matching and stop; an overlay
   deployment faces a stream — peers join, leave and re-rank while
   satisfaction queries keep arriving.  This experiment drives the
   composed stack through Owp_serve: a seeded Poisson request stream
   against the standing overlay, mutations serviced by re-running the
   configured engine on the current membership, queries costing one
   propose-answer round, everything in virtual time.

   Three tables: E27a sweeps the arrival rate on the plain LID stack
   and shows the queueing transition (latency percentiles, backlog
   peak, shedding once the engine can't keep up); E27b replays one
   moderate stream across the layer compositions — ARQ over a lossy
   channel, guarded liars, a per-request deadline, and all three at
   once — each paying its own service-time premium; E27c is the
   acceptance table the `owp bench --gate` serve preset mirrors,
   including the two injected-regression self-tests. *)

module Tbl = Owp_util.Tablefmt
module RC = Owp_core.Run_config
module SR = Owp_core.Serve_report
module Faults = Owp_simnet.Faults
module Serve = Owp_serve.Serve
module Arrivals = Owp_serve.Arrivals

let cfg_of spec =
  match RC.validate spec with Ok c -> c | Error m -> failwith ("E27: " ^ m)

let serve_report ?handicap ~arrivals cfg prefs =
  match Serve.run ?handicap ~arrivals cfg prefs with
  | Ok out -> Option.get out.Owp_core.Pipeline.serve
  | Error msg -> failwith ("E27: " ^ msg)

(* the compositions E27b serves one stream through: every middleware
   subset rides the same request sequence *)
let lossy = { Faults.none with Faults.drop = 0.1; reorder = 0.3 }

let stacks =
  [
    ("lid", cfg_of (RC.make ~engine:RC.Lid ~seed:27 ()));
    ( "drop+reorder, ARQ",
      cfg_of (RC.make ~engine:RC.Lid ~seed:27 ~reliable:true ~faults:lossy ()) );
    ( "liar:0.2, guard",
      cfg_of (RC.make ~engine:RC.Lid ~seed:27 ~byzantine:"liar:0.2" ~guard:true ()) );
    ("deadline 6", cfg_of (RC.make ~engine:RC.Lid ~seed:27 ~deadline:6.0 ()));
    ( "ARQ+guard+deadline",
      cfg_of
        (RC.make ~engine:RC.Lid ~seed:27 ~reliable:true ~faults:lossy
           ~byzantine:"liar:0.2" ~guard:true ~deadline:12.0 ()) );
  ]

(* ------------------------------------------------------------------ *)
(* the CI serve gate                                                    *)
(* ------------------------------------------------------------------ *)

(* `owp bench --gate` preset: a short underloaded session on a fixed
   instance, run twice.  Fixed bounds, tuned with slack against the
   committed preset: p99 under the bound (a latency regression in any
   layer the session exercises pushes it over), steady-state
   satisfaction over the bound (a quality regression — engine or guard
   — pulls it under), and the two reports byte-identical. *)

type gate_result = {
  p50 : float;
  p99 : float;
  steady : float;
  throughput : float;
  max_queue : int;
  deterministic : bool;
  p99_bound : float;
  steady_bound : float;
  passed : bool;
}

let p99_bound = 30.0
let steady_bound = 0.80

(* the --inject latency handicap: comfortably larger than the slack
   between the clean preset's p99 and the bound, so the planted
   regression always trips the gate *)
let latency_injection = 2.0 *. p99_bound

let gate_arrivals = Arrivals.make ~rate:0.25 ~horizon:160.0 ()

let gate_instance () =
  Workloads.make ~seed:27 ~family:(Workloads.Gnm_avg_deg 6.0)
    ~pref_model:Workloads.Random_prefs ~n:40 ~quota:3

let gate ?(handicap = 0.0) ~cfg () =
  let prefs = (gate_instance ()).Workloads.prefs in
  let once () = Serve.run ~handicap ~arrivals:gate_arrivals cfg prefs in
  match (once (), once ()) with
  | Error m, _ | _, Error m -> Error m
  | Ok a, Ok b ->
      let ra = Option.get a.Owp_core.Pipeline.serve in
      let rb = Option.get b.Owp_core.Pipeline.serve in
      let deterministic = String.equal (SR.summary ra) (SR.summary rb) in
      Ok
        {
          p50 = ra.SR.p50;
          p99 = ra.SR.p99;
          steady = ra.SR.steady_satisfaction;
          throughput = ra.SR.throughput;
          max_queue = ra.SR.max_queue;
          deterministic;
          p99_bound;
          steady_bound;
          passed =
            deterministic && ra.SR.p99 <= p99_bound
            && ra.SR.steady_satisfaction >= steady_bound;
        }

(* ------------------------------------------------------------------ *)
(* the experiment tables                                                *)
(* ------------------------------------------------------------------ *)

let run ~quick =
  let n = if quick then 40 else 80 in
  let inst =
    Workloads.make ~seed:27 ~family:(Workloads.Gnm_avg_deg 6.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:3
  in
  let prefs = inst.Workloads.prefs in
  let lid = cfg_of (RC.make ~engine:RC.Lid ~seed:27 ()) in
  (* E27a: the queueing transition along the arrival-rate axis *)
  let rates = if quick then [ 0.1; 0.5; 2.0 ] else [ 0.05; 0.1; 0.25; 0.5; 1.0; 2.0 ] in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E27a: sustained traffic vs arrival rate (plain LID, n = %d, b = 3, \
            horizon 150; virtual time)"
           n)
      [
        ("rate", Tbl.Right);
        ("offered", Tbl.Right);
        ("served", Tbl.Right);
        ("shed", Tbl.Right);
        ("p50", Tbl.Right);
        ("p99", Tbl.Right);
        ("thrpt", Tbl.Right);
        ("backlog", Tbl.Right);
        ("util", Tbl.Right);
        ("steady S", Tbl.Right);
      ]
  in
  List.iter
    (fun rate ->
      let arrivals = Arrivals.make ~rate ~horizon:150.0 () in
      let r = serve_report ~arrivals lid prefs in
      Tbl.add_row t1
        [
          Tbl.fcell2 rate;
          Tbl.icell r.SR.offered;
          Tbl.icell r.SR.served;
          Tbl.icell r.SR.shed;
          Tbl.fcell2 r.SR.p50;
          Tbl.fcell2 r.SR.p99;
          Tbl.fcell2 r.SR.throughput;
          Tbl.icell r.SR.max_queue;
          Tbl.fcell2 r.SR.utilization;
          Tbl.pct r.SR.steady_satisfaction;
        ])
    rates;
  (* E27b: one moderate stream through every layer composition *)
  let arrivals_b = Arrivals.make ~rate:0.25 ~horizon:150.0 () in
  let t2 =
    Tbl.create
      ~title:
        "E27b: the same stream (rate 0.25) across stack compositions — each \
         layer pays its service-time premium"
      [
        ("stack", Tbl.Left);
        ("served", Tbl.Right);
        ("shed", Tbl.Right);
        ("p50", Tbl.Right);
        ("p99", Tbl.Right);
        ("thrpt", Tbl.Right);
        ("steady S", Tbl.Right);
      ]
  in
  List.iter
    (fun (label, cfg) ->
      let r = serve_report ~arrivals:arrivals_b cfg prefs in
      Tbl.add_row t2
        [
          label;
          Tbl.icell r.SR.served;
          Tbl.icell r.SR.shed;
          Tbl.fcell2 r.SR.p50;
          Tbl.fcell2 r.SR.p99;
          Tbl.fcell2 r.SR.throughput;
          Tbl.pct r.SR.steady_satisfaction;
        ])
    stacks;
  (* E27c: acceptance — the claims the CI serve gate re-checks *)
  let replay =
    let arrivals = Arrivals.make ~rate:0.5 ~horizon:100.0 () in
    let a = serve_report ~arrivals lid prefs in
    let b = serve_report ~arrivals lid prefs in
    String.equal (SR.summary a) (SR.summary b)
  in
  let burst =
    let arrivals = Arrivals.make ~rate:4.0 ~horizon:60.0 ~queue:4 () in
    serve_report ~arrivals lid prefs
  in
  let clean = Result.get_ok (gate ~cfg:lid ()) in
  let injected_latency =
    Result.get_ok (gate ~handicap:latency_injection ~cfg:lid ())
  in
  let injected_quality =
    let byz = cfg_of (RC.make ~engine:RC.Lid ~seed:lid.RC.seed ~byzantine:"liar:0.3" ()) in
    Result.get_ok (gate ~cfg:byz ())
  in
  let t3 =
    Tbl.create ~title:"E27c: acceptance" [ ("claim", Tbl.Left); ("holds", Tbl.Left) ]
  in
  Tbl.add_rows t3
    [
      [ "identical reports across repeated runs at the same seed"; Exp_common.yn replay ];
      [
        Printf.sprintf
          "backlog bounded by the queue knob under a burst (peak %d <= 4, shed %d)"
          burst.SR.max_queue burst.SR.shed;
        Exp_common.yn (burst.SR.max_queue <= 4 && burst.SR.shed > 0);
      ];
      [
        Printf.sprintf "gate passes on the clean preset (p99 %.2f <= %.2f, steady %.4f >= %.2f)"
          clean.p99 clean.p99_bound clean.steady clean.steady_bound;
        Exp_common.yn clean.passed;
      ];
      [
        "gate trips on an injected latency regression";
        Exp_common.yn (not injected_latency.passed);
      ];
      [
        "gate trips on injected unguarded liars";
        Exp_common.yn (not injected_quality.passed);
      ];
    ];
  [ t1; t2; t3 ]

let exp =
  {
    Exp_common.id = "E27";
    title = "Overlay-as-a-service: the stack under sustained traffic";
    paper_ref = "§6 dynamics served continuously (queueing view)";
    run;
  }
