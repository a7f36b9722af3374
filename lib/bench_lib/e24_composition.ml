(* E24 — layer composition: the stack's layers alone and together (§7
   robustness, Lemmas 5-6 relativized).  Each slice of the grid keeps its
   own instance, quota and run seeds.  E24a/E24b: guarded 20% liars over
   a lossy reordering channel under ARQ must terminate, certify bounded
   damage and keep the crash-only LIC reference's satisfaction, while
   the unguarded baseline's overclaim locks flag; E24b lists one guarded
   run's layer counters.  E24c-E24e: fail-silent peers behind the
   patience detector.  E24f-E24h: ARQ alone ends on exactly LIC's edge
   set under loss, duplication and reordering where plain LID gets
   stuck; under crashes only the survivors' convergence is claimed.
   E24i/E24j: adversary model x fraction x guard on a clean channel. *)

module Tbl = Owp_util.Tablefmt
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack
module Prng = Owp_util.Prng

let yn = Exp_common.yn
let left s = (s, Tbl.Left)
let right s = (s, Tbl.Right)

(* the tally of one seeded row: its reports, one per run seed, and sums
   over them in seed order *)
let sum f (rs : Stack.report list) = List.fold_left (fun a r -> a + f r) 0 rs
let sumf f (rs : Stack.report list) = List.fold_left (fun a r -> a +. f r) 0.0 rs
let per_run f rs = sum f rs / List.length rs
let terminated rs = sum (fun r -> if r.Stack.all_terminated then 1 else 0) rs
let all_done rs = terminated rs = List.length rs
let done_cell rs = Printf.sprintf "%d/%d" (terminated rs) (List.length rs)
let damage rs = sum (fun r -> List.length r.Stack.damage) rs
let counter layer name r = Stack.counter r ~layer name
let ratio a b = if Float.equal b 0.0 then 0.0 else a /. b

(* satisfaction of the correct peers vs crash-only LIC on their subgraph *)
let retained_cell prefs rs =
  Tbl.pct
    (ratio
       (sumf (Stack.satisfaction_of_correct prefs) rs)
       (sumf (fun r -> Stack.reference_satisfaction prefs ~correct:r.Stack.correct) rs))

let adversaries ~salt ~n spec seed =
  Adversary.assign (Prng.create (salt + (7919 * seed))) ~n (Adversary.parse_spec spec)

(* a slice's instance: preferences, eq. 9 weights and quotas *)
let instance ~seed ~deg ~n ~quota =
  let i = Exp_common.gnm ~seed ~deg ~n ~quota in
  (i.Workloads.prefs, i.Workloads.weights, i.Workloads.capacity)

let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]

(* E24a/E24b ----------------------------------------------------------- *)
let composition ~quick =
  let n = if quick then 60 else 200 and seeds = seeds ~quick in
  let prefs, w, capacity = instance ~seed:24 ~deg:6.0 ~n ~quota:2 in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.3 () in
  let run ~guard seed =
    Stack.run ~seed ~fifo:false ~faults ~reliable:true
      ~adversaries:(adversaries ~salt:0xE24 ~n "liar:0.2" seed)
      ~guard ~prefs w ~capacity
  in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E24a: guarded 20%% weight-liars over drop = 0.1 + reorder = 0.3 with \
            ARQ (n = %d, avg deg 6, b = 2, %d seeds/row; S retained vs crash-only \
            LIC on the correct subgraph)"
           n (List.length seeds))
      [
        left "guard"; right "correct done"; left "certified"; right "damage";
        right "S retained"; right "retrans"; right "quarantines"; left "precision";
        right "wasted";
      ]
  in
  (* one row per guard setting; true when every seed certified *)
  let row guard =
    let rs = List.map (run ~guard) seeds in
    let certified = all_done rs && damage rs = 0 in
    Tbl.add_row t1
      [
        yn guard;
        done_cell rs;
        yn certified;
        Tbl.icell (damage rs);
        retained_cell prefs rs;
        Tbl.icell (per_run (counter "transport" "retransmissions") rs);
        Tbl.icell (per_run (fun r -> r.Stack.quarantine_events) rs);
        yn (sum (counter "guard" "false-quarantines") rs = 0);
        Tbl.icell (per_run (fun r -> r.Stack.wasted_slots) rs);
      ];
    certified
  in
  ignore (row false);
  let guarded = row true in
  let t2 =
    Tbl.create ~title:"E24b: per-layer counters of the guarded composition (seed 1)"
      [ left "layer"; left "counter"; right "value" ]
  in
  List.iter
    (fun { Stack.layer; counters } ->
      List.iter (fun (name, v) -> Tbl.add_row t2 [ layer; name; Tbl.icell v ]) counters)
    (run ~guard:true (List.hd seeds)).Stack.layers;
  ([ t1; t2 ], guarded)

(* E24c-E24e: fail-silent peers ---------------------------------------- *)
let silent_peers ~quick =
  let n = if quick then 200 else 800 in
  let prefs, w, capacity = instance ~seed:15 ~deg:8.0 ~n ~quota:3 in
  let rng = Prng.create 0xE15 in
  let mean_s (r : Stack.report) =
    let c = Array.fold_left (fun a ok -> if ok then a + 1 else a) 0 r.Stack.correct in
    if c = 0 then 0.0 else Stack.satisfaction_of_correct prefs r /. float_of_int c
  in
  let terminated = ref true in
  let row t key ?(dropped = true) ?(extra = []) (r : Stack.report) =
    terminated := !terminated && r.Stack.all_terminated;
    Tbl.add_row t
      ([ key; yn r.Stack.all_terminated; Tbl.icell (counter "detector" "patience-fired" r) ]
      @ (if dropped then [ Tbl.icell r.Stack.dropped ] else [])
      @ (Tbl.fcell (mean_s r) :: extra))
  in
  let baseline = mean_s (Stack.run ~seed:1 w ~capacity) in
  let t1 =
    Tbl.create
      ~title:(Printf.sprintf "E24c: LID with fail-silent peers (n = %d, b = 3, timeout = 10)" n)
      [
        right "silent %"; left "correct terminated"; right "timeouts"; right "dropped";
        right "mean S (correct)"; right "vs fault-free";
      ]
  in
  List.iter
    (fun pct ->
      let silent = Array.init n (fun _ -> Prng.bernoulli rng (float_of_int pct /. 100.0)) in
      let r = Stack.run ~seed:2 ~patience:10.0 ~silent w ~capacity in
      row t1 (Tbl.icell pct) ~extra:[ Tbl.pct (ratio (mean_s r) baseline) ] r)
    [ 0; 5; 10; 20; 40 ];
  (* too-small timeouts misclassify slow-but-correct peers *)
  let t2 =
    Tbl.create ~title:"E24d: timeout sensitivity at 10% silent peers (delays U[0.5, 1.5])"
      [ right "timeout"; left "correct terminated"; right "timeouts fired"; right "mean S (correct)" ]
  in
  let silent = Array.init n (fun _ -> Prng.bernoulli rng 0.1) in
  List.iter
    (fun timeout ->
      row t2 (Tbl.fcell2 timeout) ~dropped:false
        (Stack.run ~seed:3 ~patience:timeout ~silent w ~capacity))
    [ 2.0; 5.0; 10.0; 40.0 ];
  (* channel loss on top: the per-proposal timeout doubles as a crude
     retransmission-free recovery — lossy, but it keeps the correct
     peers terminating (contrast with E24f's exact recovery) *)
  let t3 =
    Tbl.create ~title:"E24e: 10% silent peers plus channel loss (timeout = 10)"
      [
        right "drop"; left "correct terminated"; right "timeouts fired"; right "dropped";
        right "mean S (correct)";
      ]
  in
  List.iter
    (fun drop ->
      row t3 (Tbl.fcell2 drop)
        (Stack.run ~seed:4 ~faults:(Sim.faults ~drop ()) ~patience:10.0 ~silent w ~capacity))
    [ 0.0; 0.1; 0.3 ];
  ([ t1; t2; t3 ], !terminated)

(* E24f-E24h: the ARQ transport ---------------------------------------- *)
let transport ~quick =
  let n = if quick then 100 else 400 in
  let prefs, w, capacity = instance ~seed:21 ~deg:6.0 ~n ~quota:2 in
  let lic = Owp_core.Lic_indexed.run w ~capacity in
  let lic_sat = Exp_common.total_satisfaction prefs lic in
  let exact = ref true and stuck = ref true and converged = ref true in
  let exact_cells (r : Stack.report) =
    let same = BM.equal r.Stack.matching lic in
    exact := !exact && r.Stack.all_terminated && same;
    [ yn r.Stack.all_terminated; yn same ]
  in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E24f: LID vs reliable LID under message loss (n = %d, avg deg 6, b = 2)" n)
      [
        right "drop"; left "fifo"; left "plain LID"; left "reliable"; left "= LIC";
        right "dropped"; right "retrans"; right "overhead"; right "v-time";
      ]
  in
  List.iter
    (fun (drop, fifo) ->
      let faults = Sim.faults ~drop () in
      let plain = Stack.run ~seed:3 ~fifo ~faults w ~capacity in
      let r = Stack.run ~seed:3 ~fifo ~faults ~reliable:true w ~capacity in
      if drop > 0.0 then stuck := !stuck && not plain.Stack.all_terminated;
      Tbl.add_row t1
        ([ Tbl.fcell2 drop; yn fifo; (if plain.Stack.all_terminated then "terminates" else "STUCK") ]
        @ exact_cells r
        @ [
            Tbl.icell r.Stack.dropped;
            Tbl.icell (counter "transport" "retransmissions" r);
            Tbl.fcell2 (Stack.overhead r);
            Tbl.fcell2 r.Stack.completion_time;
          ]))
    [ (0.0, true); (0.1, true); (0.3, true); (0.0, false); (0.3, false) ];
  let t2 =
    Tbl.create ~title:"E24g: duplication x reordering at drop = 0.2 (non-FIFO delivery)"
      [
        right "duplicate"; right "reorder"; left "reliable"; left "= LIC";
        right "dup suppressed"; right "straggled"; right "overhead";
      ]
  in
  List.iter
    (fun (dup, reorder) ->
      let faults = Sim.faults ~drop:0.2 ~duplicate:dup ~reorder () in
      let r = Stack.run ~seed:4 ~fifo:false ~faults ~reliable:true w ~capacity in
      Tbl.add_row t2
        ([ Tbl.fcell2 dup; Tbl.fcell2 reorder ]
        @ exact_cells r
        @ [
            Tbl.icell (counter "transport" "dup-suppressed" r);
            Tbl.icell (counter "channel" "reordered" r);
            Tbl.fcell2 (Stack.overhead r);
          ]))
    [ (0.0, 0.0); (0.2, 0.0); (0.5, 0.0); (0.0, 0.3); (0.2, 0.3); (0.5, 0.3) ];
  let seeds = seeds ~quick in
  let t3 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E24h: crashes at drop = 0.1 (patience = 60; %d seeds/row; satisfaction \
            vs fault-free LIC)"
           (List.length seeds))
      [
        right "crashed %"; left "restart"; left "survivors converged"; right "synthetic REJ";
        right "dead links"; right "S retained"; right "v-time";
      ]
  in
  let faults = Sim.faults ~drop:0.1 () in
  List.iter
    (fun (pct, restart) ->
      let run seed =
        let rng = Prng.create (0xE21 + (997 * seed)) in
        let crashes =
          List.init n (fun v -> v)
          |> List.filter (fun _ -> Prng.bernoulli rng (float_of_int pct /. 100.0))
          |> List.map (fun victim ->
                 let crash_at = 0.1 +. Prng.float rng 5.0 in
                 let restart_at =
                   if restart then Some (crash_at +. 2.0 +. Prng.float rng 8.0) else None
                 in
                 { Stack.victim; crash_at; restart_at })
        in
        Stack.run ~seed ~faults ~reliable:true ~patience:60.0 ~crashes w ~capacity
      in
      let rs = List.map run seeds in
      let k = float_of_int (List.length rs) in
      converged := !converged && all_done rs;
      Tbl.add_row t3
        [
          Tbl.icell pct;
          yn restart;
          done_cell rs;
          Tbl.icell (per_run (fun r -> r.Stack.synthetic_rejects) rs);
          Tbl.icell (per_run (counter "transport" "dead-links") rs);
          Tbl.pct (ratio (sumf (Stack.satisfaction_of_correct prefs) rs /. k) lic_sat);
          Tbl.fcell2 (sumf (fun r -> r.Stack.completion_time) rs /. k);
        ])
    [ (0, false); (5, false); (10, false); (20, false); (5, true); (10, true); (20, true) ];
  ([ t1; t2; t3 ], !exact, !stuck, !converged)

(* E24i/E24j: adversaries x guard -------------------------------------- *)
let byzantine ~quick =
  let n = if quick then 60 else 200 and seeds = seeds ~quick in
  let prefs, w, capacity = instance ~seed:22 ~deg:6.0 ~n ~quota:2 in
  let certified = ref true and precise = ref true and violated = ref true in
  let row t ~model ~frac ~spec ~guard =
    let run seed =
      Stack.run ~seed ~adversaries:(adversaries ~salt:0xE22 ~n spec seed) ~guard ~prefs w
        ~capacity
    in
    let rs = List.map run seeds in
    let false_quarantines = sum (counter "guard" "false-quarantines") rs in
    let offenders = sum (fun r -> r.Stack.byz_offenders) rs in
    if guard then certified := !certified && all_done rs && damage rs = 0
    else if String.equal model "violator" || String.equal model "mixed" then
      violated := !violated && terminated rs = 0;
    precise := !precise && false_quarantines = 0;
    Tbl.add_row t
      [
        model;
        Tbl.fcell2 frac;
        yn guard;
        done_cell rs;
        Tbl.icell (damage rs);
        retained_cell prefs rs;
        Tbl.icell (per_run (fun r -> r.Stack.quarantine_events) rs);
        yn (false_quarantines = 0);
        (if offenders = 0 then "n/a"
         else
           Tbl.pct
             (float_of_int (sum (fun r -> r.Stack.byz_quarantined) rs) /. float_of_int offenders));
        Tbl.icell (per_run (fun r -> r.Stack.wasted_slots) rs);
        Tbl.icell
          (per_run (fun r -> r.Stack.prop_count + r.Stack.rej_count + r.Stack.synthetic_rejects) rs);
      ]
  in
  let table title =
    Tbl.create ~title
      [
        left "model"; right "frac"; left "guard"; right "correct done"; right "damage";
        right "S retained"; right "quarantines"; left "precision"; left "recall";
        right "wasted"; right "msgs";
      ]
  in
  let t1 =
    table
      (Printf.sprintf
         "E24i: single adversary model, guard vs baseline (n = %d, avg deg 6, b = 2, \
          %d seeds/row; S retained vs crash-only LIC on the correct subgraph)"
         n (List.length seeds))
  in
  List.iter
    (fun m ->
      let model = Adversary.name m in
      List.iter
        (fun frac ->
          List.iter
            (fun guard -> row t1 ~model ~frac ~spec:(Printf.sprintf "%s:%.2f" model frac) ~guard)
            [ false; true ])
        [ 0.1; 0.2 ])
    Adversary.all_defaults;
  let t2 = table "E24j: mixed adversary population (all five models at once)" in
  List.iter
    (fun frac ->
      let spec =
        String.concat ","
          (List.map
             (fun m -> Printf.sprintf "%s:%.3f" (Adversary.name m) (frac /. 5.0))
             Adversary.all_defaults)
      in
      List.iter (fun guard -> row t2 ~model:"mixed" ~frac ~spec ~guard) [ false; true ])
    [ 0.1; 0.2 ];
  ([ t1; t2 ], !certified, !precise, !violated)

let run ~quick =
  let composed, guarded = composition ~quick in
  let silent, silent_done = silent_peers ~quick in
  let arq, exact, stuck, converged = transport ~quick in
  let byz, certified, precise, violated = byzantine ~quick in
  ( composed @ silent @ arq @ byz,
    [
      ("guarded composition converges and certifies on every seed", guarded);
      ("correct peers terminate at every silent fraction, timeout and drop rate", silent_done);
      ("plain LID gets stuck on every lossy channel", stuck);
      ("ARQ terminates on exactly LIC's edge set under loss, duplication and reordering", exact);
      ("crash survivors converge on every seed", converged);
      ("the guard certifies every adversary row: correct peers done, no damage", certified);
      ("unguarded violators leave the correct peers stuck on every seed", violated);
      ("no false quarantine in any adversary row", precise);
    ] )

let exp =
  {
    Exp_common.id = "E24";
    title = "Layer composition: guard x adversaries x faults x ARQ in one stack";
    paper_ref = "§7 (disruptive nodes) + Lemmas 5-6 relativized";
    run;
  }
