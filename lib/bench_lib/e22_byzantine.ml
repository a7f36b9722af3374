(* E22 — adversarial peers: the protocol guard vs the vulnerable
   baseline (§7 "disruptive nodes", malicious half).

   Sweep adversary model x fraction x guard.  For each cell we run LID
   with a random subset of nodes handed to the adversary behaviour and
   report, averaged over seeds:

   - whether every correct peer terminated (the unguarded baseline
     visibly fails this under the liveness-violating adversary);
   - bounded-damage certificate violations (Owp_check.Byzantine);
   - satisfaction retained by the correct peers, as a fraction of what
     LIC would give them on the correct subgraph had the Byzantine
     peers merely crashed;
   - quarantine precision (false quarantines must be zero) and recall
     (quarantined Byzantine peers / detectable offenders);
   - slots correct peers wasted locking Byzantine partners, and the
     message overhead of guarding. *)

module Tbl = Owp_util.Tablefmt
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack

(* the byzantine entry point at preference level: capacities are the
   quota vector, weights the eq. 4/5 symmetric construction *)
let run_byz ~seed ~guard ~adversaries prefs =
  let n = Graph.node_count (Preference.graph prefs) in
  let capacity = Array.init n (Preference.quota prefs) in
  let w = Weights.of_preference prefs in
  Stack.run ~seed ~adversaries ~guard ~prefs w ~capacity

let cells ~seeds ~prefs ~spec ~guard =
  let n = Graph.node_count (Preference.graph prefs) in
  let k = List.length seeds in
  let term = ref 0 and damage = ref 0 and quar = ref 0 and falseq = ref 0 in
  let offenders = ref 0 and caught = ref 0 and wasted = ref 0 and msgs = ref 0 in
  let retained = ref 0.0 and reference = ref 0.0 in
  List.iter
    (fun seed ->
      let rng = Owp_util.Prng.create (0xE22 + (7919 * seed)) in
      let adversaries = Adversary.assign rng ~n (Adversary.parse_spec spec) in
      let r = run_byz ~seed ~guard ~adversaries prefs in
      if r.Stack.all_terminated then incr term;
      damage := !damage + List.length r.Stack.damage;
      quar := !quar + r.Stack.quarantine_events;
      falseq := !falseq + Stack.counter r ~layer:"guard" "false-quarantines";
      offenders := !offenders + r.Stack.byz_offenders;
      caught := !caught + r.Stack.byz_quarantined;
      wasted := !wasted + r.Stack.wasted_slots;
      msgs := !msgs + r.Stack.prop_count + r.Stack.rej_count + r.Stack.synthetic_rejects;
      retained := !retained +. Stack.satisfaction_of_correct prefs r;
      reference := !reference +. Stack.reference_satisfaction prefs ~correct:r.Stack.correct)
    seeds;
  let recall =
    if !offenders = 0 then "n/a"
    else Tbl.pct (float_of_int !caught /. float_of_int !offenders)
  in
  [
    Exp_common.yn guard;
    Printf.sprintf "%d/%d" !term k;
    Tbl.icell !damage;
    Tbl.pct (if Float.equal !reference 0.0 then 0.0 else !retained /. !reference);
    Tbl.icell (!quar / k);
    Exp_common.yn (!falseq = 0);
    recall;
    Tbl.icell (!wasted / k);
    Tbl.icell (!msgs / k);
  ]

let run ~quick =
  let n = if quick then 60 else 200 in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let inst =
    Workloads.make ~seed:22 ~family:(Workloads.Gnm_avg_deg 6.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:2
  in
  let prefs = inst.Workloads.prefs in
  let header =
    [
      ("model", Tbl.Left);
      ("frac", Tbl.Right);
      ("guard", Tbl.Left);
      ("correct done", Tbl.Right);
      ("damage", Tbl.Right);
      ("S retained", Tbl.Right);
      ("quarantines", Tbl.Right);
      ("precision", Tbl.Left);
      ("recall", Tbl.Left);
      ("wasted", Tbl.Right);
      ("msgs", Tbl.Right);
    ]
  in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E22a: single adversary model, guard vs baseline (n = %d, avg deg 6, \
            b = 2, %d seeds/row; S retained vs crash-only LIC on the correct \
            subgraph)"
           n (List.length seeds))
      header
  in
  List.iter
    (fun model ->
      let mname = Adversary.name model in
      List.iter
        (fun frac ->
          let spec = Printf.sprintf "%s:%.2f" mname frac in
          List.iter
            (fun guard ->
              Tbl.add_row t1
                ([ mname; Tbl.fcell2 frac ] @ cells ~seeds ~prefs ~spec ~guard))
            [ false; true ])
        [ 0.1; 0.2 ])
    Adversary.all_defaults;
  let t2 =
    Tbl.create
      ~title:"E22b: mixed adversary population (all five models at once)"
      header
  in
  let mix frac =
    String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%s:%.3f" (Adversary.name m) (frac /. 5.0))
         Adversary.all_defaults)
  in
  List.iter
    (fun frac ->
      List.iter
        (fun guard ->
          Tbl.add_row t2
            ([ "mixed"; Tbl.fcell2 frac ]
            @ cells ~seeds ~prefs ~spec:(mix frac) ~guard))
        [ false; true ])
    [ 0.1; 0.2 ];
  [ t1; t2 ]

let exp =
  {
    Exp_common.id = "E22";
    title = "Byzantine peers: guard + quarantine vs the vulnerable baseline";
    paper_ref = "§7 (disruptive nodes, malicious half) + Lemmas 5-6 relativized";
    run;
  }
