(* E15 — robustness to fail-silent peers (§7 "malicious nodes"
   extension): sweep the fraction of peers that never respond and the
   timeout, measuring termination among correct peers and their
   satisfaction relative to a fault-free run. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng
module Stack = Owp_core.Stack

let correct_satisfaction prefs silent m =
  let g = Preference.graph prefs in
  let acc = ref 0.0 and cnt = ref 0 in
  for v = 0 to Graph.node_count g - 1 do
    if not silent.(v) then begin
      incr cnt;
      acc := !acc +. BM.satisfaction prefs m v
    end
  done;
  (!acc, !cnt)

let run ~quick =
  let n = if quick then 200 else 800 in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E15a: LID with fail-silent peers (n = %d, b = 3, timeout = 10)" n)
      [
        ("silent %", Tbl.Right);
        ("correct terminated", Tbl.Left);
        ("timeouts", Tbl.Right);
        ("dropped", Tbl.Right);
        ("mean S (correct)", Tbl.Right);
        ("vs fault-free", Tbl.Right);
      ]
  in
  let inst =
    Workloads.make ~seed:15 ~family:(Workloads.Gnm_avg_deg 8.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:3
  in
  let rng = Prng.create 0xE15 in
  let baseline =
    let r = Owp_core.Stack.run ~seed:1 inst.Workloads.weights ~capacity:inst.Workloads.capacity in
    let s, c = correct_satisfaction inst.Workloads.prefs (Array.make n false)
        r.Owp_core.Stack.matching in
    s /. float_of_int c
  in
  List.iter
    (fun pct ->
      let silent = Array.init n (fun _ -> Prng.bernoulli rng (float_of_int pct /. 100.0)) in
      let r =
        Stack.run ~seed:2 ~patience:10.0 ~silent inst.Workloads.weights
          ~capacity:inst.Workloads.capacity
      in
      let s, c = correct_satisfaction inst.Workloads.prefs silent r.Stack.matching in
      let mean = if c = 0 then 0.0 else s /. float_of_int c in
      Tbl.add_row t
        [
          Tbl.icell pct;
          (if r.Stack.all_terminated then "yes" else "NO");
          Tbl.icell (Stack.counter r ~layer:"detector" "patience-fired");
          Tbl.icell r.Stack.dropped;
          Tbl.fcell mean;
          Tbl.pct (if Float.equal baseline 0.0 then 0.0 else mean /. baseline);
        ])
    [ 0; 5; 10; 20; 40 ];
  (* timeout sweep at fixed 10% silent: too-small timeouts misclassify
     slow-but-correct peers *)
  let t2 =
    Tbl.create
      ~title:"E15b: timeout sensitivity at 10% silent peers (delays U[0.5, 1.5])"
      [
        ("timeout", Tbl.Right);
        ("correct terminated", Tbl.Left);
        ("timeouts fired", Tbl.Right);
        ("mean S (correct)", Tbl.Right);
      ]
  in
  let silent = Array.init n (fun _ -> Prng.bernoulli rng 0.1) in
  List.iter
    (fun timeout ->
      let r =
        Stack.run ~seed:3 ~patience:timeout ~silent inst.Workloads.weights
          ~capacity:inst.Workloads.capacity
      in
      let s, c = correct_satisfaction inst.Workloads.prefs silent r.Stack.matching in
      Tbl.add_row t2
        [
          Tbl.fcell2 timeout;
          (if r.Stack.all_terminated then "yes" else "NO");
          Tbl.icell (Stack.counter r ~layer:"detector" "patience-fired");
          Tbl.fcell (if c = 0 then 0.0 else s /. float_of_int c);
        ])
    [ 2.0; 5.0; 10.0; 40.0 ];
  (* channel loss on top of silent peers: the per-proposal timeout then
     doubles as a crude retransmission-free recovery — lossy, but it
     keeps the correct peers terminating (contrast with E21's exact
     transport-level recovery) *)
  let t3 =
    Tbl.create
      ~title:"E15c: 10% silent peers plus channel loss (timeout = 10)"
      [
        ("drop", Tbl.Right);
        ("correct terminated", Tbl.Left);
        ("timeouts fired", Tbl.Right);
        ("dropped", Tbl.Right);
        ("mean S (correct)", Tbl.Right);
      ]
  in
  List.iter
    (fun drop ->
      let faults = Owp_simnet.Simnet.faults ~drop () in
      let r =
        Stack.run ~seed:4 ~faults ~patience:10.0 ~silent inst.Workloads.weights
          ~capacity:inst.Workloads.capacity
      in
      let s, c = correct_satisfaction inst.Workloads.prefs silent r.Stack.matching in
      Tbl.add_row t3
        [
          Tbl.fcell2 drop;
          (if r.Stack.all_terminated then "yes" else "NO");
          Tbl.icell (Stack.counter r ~layer:"detector" "patience-fired");
          Tbl.icell r.Stack.dropped;
          Tbl.fcell (if c = 0 then 0.0 else s /. float_of_int c);
        ])
    [ 0.0; 0.1; 0.3 ];
  [ t; t2; t3 ]

let exp =
  {
    Exp_common.id = "E15";
    title = "Robustness to fail-silent peers";
    paper_ref = "§7 (disruptive nodes — extension)";
    run;
  }
