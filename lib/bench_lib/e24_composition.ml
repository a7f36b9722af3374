(* E24 — layer composition: guarded Byzantine peers on a faulty
   channel with the ARQ transport underneath, all in one stack run.

   The pre-stack drivers could model an adversary OR a lossy channel,
   never both; the layered runtime makes the combination a
   configuration.  The acceptance claim mirrors E22's, relativized the
   same way (Theorem 3 on the correct subgraph): with the guard on,
   20% weight-liars over a 10%-drop reordering channel masked by the
   transport must leave every correct peer terminated, certify the
   bounded-damage certificate, and retain the satisfaction of the
   crash-only LIC reference on the correct subgraph.  The unguarded
   rows are the vulnerable baseline — same channel, same adversaries,
   no vetting — whose overclaim locks the certificate flags. *)

module Tbl = Owp_util.Tablefmt
module Sim = Owp_simnet.Simnet
module Adversary = Owp_simnet.Adversary
module Stack = Owp_core.Stack

let run ~quick =
  let n = if quick then 60 else 200 in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let k = List.length seeds in
  let inst =
    Workloads.make ~seed:24 ~family:(Workloads.Gnm_avg_deg 6.0)
      ~pref_model:Workloads.Random_prefs ~n ~quota:2
  in
  let prefs = inst.Workloads.prefs in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.3 () in
  let run_one ~guard seed =
    let rng = Owp_util.Prng.create (0xE24 + (7919 * seed)) in
    let adversaries = Adversary.assign rng ~n (Adversary.parse_spec "liar:0.2") in
    let r =
      Stack.run ~seed ~fifo:false ~faults ~reliable:true ~adversaries ~guard ~prefs w
        ~capacity
    in
    (r, Stack.satisfaction_of_correct prefs r,
     Stack.reference_satisfaction prefs ~correct:r.Stack.correct)
  in
  let t1 =
    Tbl.create
      ~title:
        (Printf.sprintf
           "E24a: guarded 20%% weight-liars over drop = 0.1 + reorder = 0.3 with \
            ARQ (n = %d, avg deg 6, b = 2, %d seeds/row; S retained vs crash-only \
            LIC on the correct subgraph)"
           n k)
      [
        ("guard", Tbl.Left);
        ("correct done", Tbl.Right);
        ("certified", Tbl.Left);
        ("damage", Tbl.Right);
        ("S retained", Tbl.Right);
        ("retrans", Tbl.Right);
        ("quarantines", Tbl.Right);
        ("precision", Tbl.Left);
        ("wasted", Tbl.Right);
      ]
  in
  let guarded_certified = ref true in
  List.iter
    (fun guard ->
      let term = ref 0 and damage = ref 0 and retrans = ref 0 in
      let quar = ref 0 and falseq = ref 0 and wasted = ref 0 in
      let retained = ref 0.0 and reference = ref 0.0 in
      List.iter
        (fun seed ->
          let r, s, sref = run_one ~guard seed in
          if r.Stack.all_terminated then incr term;
          damage := !damage + List.length r.Stack.damage;
          retrans := !retrans + Stack.counter r ~layer:"transport" "retransmissions";
          quar := !quar + r.Stack.quarantine_events;
          falseq := !falseq + Stack.counter r ~layer:"guard" "false-quarantines";
          wasted := !wasted + r.Stack.wasted_slots;
          retained := !retained +. s;
          reference := !reference +. sref;
          if guard && not (r.Stack.all_terminated && r.Stack.damage = []) then
            guarded_certified := false)
        seeds;
      Tbl.add_row t1
        [
          Exp_common.yn guard;
          Printf.sprintf "%d/%d" !term k;
          Exp_common.yn (!term = k && !damage = 0);
          Tbl.icell !damage;
          Tbl.pct (if Float.equal !reference 0.0 then 0.0 else !retained /. !reference);
          Tbl.icell (!retrans / k);
          Tbl.icell (!quar / k);
          Exp_common.yn (!falseq = 0);
          Tbl.icell (!wasted / k);
        ])
    [ false; true ];
  (* the per-layer counter table of one guarded run: the uniform
     Stack.report surface E24 exists to exercise *)
  let t2 =
    Tbl.create
      ~title:"E24b: per-layer counters of the guarded composition (seed 1)"
      [ ("layer", Tbl.Left); ("counter", Tbl.Left); ("value", Tbl.Right) ]
  in
  let r1, _, _ = run_one ~guard:true (List.hd seeds) in
  List.iter
    (fun { Stack.layer; counters } ->
      List.iter
        (fun (name, v) -> Tbl.add_row t2 [ layer; name; Tbl.icell v ])
        counters)
    r1.Stack.layers;
  let t3 =
    Tbl.create ~title:"E24c: acceptance"
      [ ("claim", Tbl.Left); ("holds", Tbl.Left) ]
  in
  Tbl.add_row t3
    [
      "guarded composition converges and certifies on every seed";
      Exp_common.yn !guarded_certified;
    ];
  [ t1; t2; t3 ]

let exp =
  {
    Exp_common.id = "E24";
    title = "Layer composition: guard x adversaries x faults x ARQ in one stack";
    paper_ref = "§7 (disruptive nodes) + Lemmas 5-6 relativized";
    run;
  }
