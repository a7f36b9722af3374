module W = Owp_bench.Workloads
module E = Owp_bench.Experiments

let test_make_families () =
  List.iter
    (fun family ->
      let inst = W.make ~seed:1 ~family ~pref_model:W.Random_prefs ~n:64 ~quota:2 in
      Alcotest.(check int) "node count" 64 (Graph.node_count inst.W.graph);
      Alcotest.(check bool) "edges exist" true (Graph.edge_count inst.W.graph > 0);
      Alcotest.(check int) "weights arity" (Graph.edge_count inst.W.graph)
        (Array.length (Array.init (Graph.edge_count inst.W.graph) (Weights.weight inst.W.weights))))
    W.standard_families

let test_make_pref_models () =
  List.iter
    (fun model ->
      let inst = W.make ~seed:2 ~family:(W.Gnp 0.1) ~pref_model:model ~n:50 ~quota:3 in
      (* every preference list is a permutation of the neighbourhood *)
      for v = 0 to 49 do
        let l = Array.copy (Preference.list inst.W.prefs v) in
        Array.sort compare l;
        Alcotest.(check (array int)) "permutation" (Graph.neighbor_nodes inst.W.graph v) l
      done)
    [ W.Random_prefs; W.Latency_prefs; W.Interest_prefs 4; W.Bandwidth_prefs; W.Transaction_prefs ]

let test_labels_unique () =
  let a = W.make ~seed:1 ~family:(W.Gnp 0.1) ~pref_model:W.Random_prefs ~n:30 ~quota:2 in
  let b = W.make ~seed:2 ~family:(W.Gnp 0.1) ~pref_model:W.Random_prefs ~n:30 ~quota:2 in
  Alcotest.(check bool) "labels differ by seed" true (a.W.label <> b.W.label)

let test_small_instances () =
  let insts = W.small_instances ~seeds:[ 1; 2 ] ~n:8 ~quota:2 in
  Alcotest.(check int) "3 families x 3 models x 2 seeds" 18 (List.length insts);
  List.iter
    (fun i -> Alcotest.(check int) "small n" 8 (Graph.node_count i.W.graph))
    insts

let test_registry () =
  Alcotest.(check int) "twenty experiments" 20 (List.length E.all);
  Alcotest.(check bool) "find e3" true (E.find "e3" <> None);
  Alcotest.(check bool) "find e27" true (E.find "e27" <> None);
  Alcotest.(check bool) "e28 folded into e23" true (E.find "e28" = None);
  Alcotest.(check bool) "e19 folded into e25" true (E.find "e19" = None);
  Alcotest.(check bool) "e15 folded into e24" true (E.find "e15" = None);
  Alcotest.(check bool) "e21 folded into e24" true (E.find "e21" = None);
  Alcotest.(check bool) "e22 folded into e24" true (E.find "e22" = None);
  Alcotest.(check bool) "e12 folded into e4 and e7" true (E.find "e12" = None);
  Alcotest.(check bool) "e17 folded into e8" true (E.find "e17" = None);
  Alcotest.(check bool) "e18 folded into e3" true (E.find "e18" = None);
  Alcotest.(check bool) "e20 folded into e11" true (E.find "e20" = None);
  Alcotest.(check bool) "find E10" true (E.find "E10" <> None);
  Alcotest.(check bool) "find e16" true (E.find "e16" <> None);
  Alcotest.(check bool) "unknown" true (E.find "e99" = None)

let test_experiment_tables_nonempty () =
  (* E1 and E2 are cheap enough to execute inside the unit suite *)
  List.iter
    (fun id ->
      match E.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some e ->
          let tables, _ = e.Owp_bench.Exp_common.run ~quick:true in
          Alcotest.(check bool) (id ^ " has tables") true (List.length tables > 0);
          List.iter
            (fun t ->
              Alcotest.(check bool) "renders" true
                (String.length (Owp_util.Tablefmt.render t) > 0))
            tables)
    [ "e1"; "e2" ]

(* Every experiment but E23 (whose smallest sizes take tens of seconds)
   in quick mode: each claim holds, and the "ID: claim" list is pinned,
   so a claim can neither fail nor vanish silently.  Claims with a
   figure in their text pin the quick-mode figure. *)
let pinned_claims =
  [
    "E0: latency, interest and bandwidth preferences are acyclic on every \
     sample, random and transaction ones on none";
    "E1: S_i = 25/28, the paper's 0.893";
    "E1: the eq. 4 terms sum to S_i";
    "E2: static/full ratio >= 1/2(1+1/b) on every connection set (Lemma 1)";
    "E2: the proof's bottom-of-list connection set attains the bound";
    "E3: w(LIC) >= w(OPT)/2 on every small instance (Theorem 2)";
    "E3: LIC is maximal and greedy-stable on every family at scale";
    "E3: the path gadgets give LIC/OPT = (1 + eps)/2: the bound 1/2 is tight";
    "E3: w(LID) >= w(OPT)/2 at every size (Theorem 2)";
    "E4: LID, indexed LIC and climbing LIC lock one edge set on every run (Lemmas 4/6)";
    "E4: LID terminates on LIC's edge set at every quantisation level";
    "E5: LID terminates on every clean channel (Lemma 5)";
    "E6: S(LID) >= 1/4(1+1/b_max) S(OPT) on every small instance (Theorem 3)";
    "E7: every LID run quiesces (Lemma 5)";
    "E7: quota b = 8 serves a higher mean satisfaction than b = 1 on every family";
    "E7: eq. 9's Sum serves the most satisfaction of the three combiners";
    "E8: blocking-pair dynamics stabilize on both acyclic systems";
    "E8: LID serves more satisfaction than the dynamics on both cyclic systems";
    "E8: LID's matching is global greedy's (Lemma 6)";
    "E8: LID serves more satisfaction than the blocking-pair dynamics";
    "E9: LID discloses fewer entries per node than neighbour gossip at every n";
    "E10: incremental repair retains at least 90% of the rebuild's satisfaction";
    "E10: incremental repair changes fewer edges per event than a rebuild";
    "E11: LIC = Preis on every b = 1 instance";
    "E11: LID and Hoepman lock the same edge set at every n";
    "E11: LID pairs at least 3/4 of a maximum matching on every family";
    "E11: LID serves more satisfaction than a maximum matching on every family";
    "E13: the LID overlay at b = 5 connects every sampled pair, mean stretch < 1.5";
    "E14: local search never lowers LID's satisfaction";
    "E14: local search stays at or below the exact optimum";
    "E16: dynamic LID quiesces on every family";
    "E16: dynamic LID sends fewer messages per event than a static re-run";
    "E24: guarded composition converges and certifies on every seed";
    "E24: correct peers terminate at every silent fraction, timeout and drop rate";
    "E24: plain LID gets stuck on every lossy channel";
    "E24: ARQ terminates on exactly LIC's edge set under loss, duplication and reordering";
    "E24: crash survivors converge on every seed";
    "E24: the guard certifies every adversary row: correct peers done, no damage";
    "E24: unguarded violators leave the correct peers stuck on every seed";
    "E24: no false quarantine in any adversary row";
    "E25: every budgeted run certifies (feasible + prefix of its full run)";
    "E25: satisfaction monotone in the budget on every family (fixed seed)";
    "E25: adverse sweeps stay monotone (ARQ channel, guarded liars)";
    "E25: half the payoff is served by t = 3 on every family";
    "E25: no cliff: largest per-step jump is 67.6% of the full payoff";
    "E26: every scheduled run certifies (quiesced + converged to crash-only LIC)";
    "E26: partitions actually bite (messages cut on the wire)";
    "E26: recovery is bounded: worst over all sweeps is 19.21";
    "E27: identical reports across repeated runs at the same seed";
    "E27: backlog bounded by the queue knob under a burst (peak 4 <= 4, shed 221)";
    "E27: gate passes on the clean preset (p99 12.44 <= 30.00, steady 1.0000 >= 0.80)";
    "E27: gate trips on an injected latency regression";
    "E27: gate trips on injected unguarded liars";
  ]

let test_claims_hold () =
  let claims =
    List.concat_map
      (fun (e : Owp_bench.Exp_common.exp) ->
        if String.equal e.id "E23" then []
        else
          List.map
            (fun (claim, holds) -> (e.id ^ ": " ^ claim, holds))
            (snd (e.run ~quick:true)))
      E.all
  in
  List.iter (fun (claim, holds) -> Alcotest.(check bool) claim true holds) claims;
  Alcotest.(check (list string)) "claim names" pinned_claims (List.map fst claims)

(* --family / --prefs: every value a generator or metric would reject,
   every non-finite number and every negative radius is an [Error] at
   parse time; values only a given n rules out are [fits] errors *)
let test_bad_instance_flags () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("--family " ^ s) true (Result.is_error (W.family_of_string s)))
    [
      "gnp:2"; "deg:-3"; "ws:0:0.1"; "ba:0"; "ba:-1"; "ws:1:1.5"; "pl:0.5:2";
      "gnp:nan"; "ws:4:nan"; "geo:nan"; "geo:inf"; "geo:-1"; "pl:nan:2";
      "deg:inf"; "pl:inf:2"; "pl:2.5:0"; "pl:2.5:-3"; "ba:x"; "ws:2"; "nope";
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("--prefs " ^ s) true
        (Result.is_error (W.pref_model_of_string s)))
    [ "interest:0"; "interest:-2"; "interest:x"; "nope" ];
  List.iter
    (fun (s, n) ->
      match W.family_of_string s with
      | Error m -> Alcotest.failf "%s parses: %s" s m
      | Ok f ->
          Alcotest.(check bool) (Printf.sprintf "%s on n = %d" s n) true
            (Result.is_error (W.fits f ~n)))
    [ ("ba:5", 4); ("ws:3:0.1", 4); ("pl:2.5:20", 20); ("pl:2.5:1000000000", 1000) ]

let test_good_instance_flags () =
  List.iter
    (fun (s, f) ->
      match W.family_of_string s with
      | Ok g -> Alcotest.(check string) s (W.family_name f) (W.family_name g)
      | Error m -> Alcotest.failf "%s: %s" s m)
    [
      ("gnp:0.1", W.Gnp 0.1); ("deg:8", W.Gnm_avg_deg 8.0); ("ba:4", W.Ba 4);
      ("ws:4:0.1", W.Ws (4, 0.1)); ("geo:0.08", W.Geometric 0.08); ("torus", W.Torus);
      ("pl:2.5:2", W.Power_law (2.5, 2));
    ];
  List.iter
    (fun (s, m) ->
      match W.pref_model_of_string s with
      | Ok g -> Alcotest.(check string) s (W.pref_model_name m) (W.pref_model_name g)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      ("random", W.Random_prefs); ("latency", W.Latency_prefs);
      ("interest:4", W.Interest_prefs 4); ("bandwidth", W.Bandwidth_prefs);
      ("transactions", W.Transaction_prefs);
    ];
  Alcotest.(check bool) "ba:4 fits n = 5" true (W.fits (W.Ba 4) ~n:5 = Ok ());
  Alcotest.(check bool) "pl:2.5:9 fits n = 10" true
    (W.fits (W.Power_law (2.5, 9)) ~n:10 = Ok ())

(* the torus generator draws nothing from the PRNG, so its graph given
   to [of_graph] must get the same preference lists as [make] built on
   it, under every model: one dispatch, one stream *)
let test_of_graph_matches_make () =
  List.iter
    (fun model ->
      let made = W.make ~seed:4 ~family:W.Torus ~pref_model:model ~n:25 ~quota:2 in
      let given = W.of_graph ~seed:4 ~pref_model:model ~quota:2 ~label:"g" made.W.graph in
      for v = 0 to Graph.node_count made.W.graph - 1 do
        Alcotest.(check (array int)) (W.pref_model_name model)
          (Preference.list made.W.prefs v) (Preference.list given.W.prefs v)
      done)
    [ W.Random_prefs; W.Latency_prefs; W.Interest_prefs 3; W.Bandwidth_prefs; W.Transaction_prefs ]

let suite =
  [
    Alcotest.test_case "bad instance flags are errors" `Quick test_bad_instance_flags;
    Alcotest.test_case "good instance flags parse" `Quick test_good_instance_flags;
    Alcotest.test_case "of_graph matches make" `Quick test_of_graph_matches_make;
    Alcotest.test_case "make families" `Quick test_make_families;
    Alcotest.test_case "make pref models" `Quick test_make_pref_models;
    Alcotest.test_case "labels unique" `Quick test_labels_unique;
    Alcotest.test_case "small instances" `Quick test_small_instances;
    Alcotest.test_case "experiment registry" `Quick test_registry;
    Alcotest.test_case "experiment tables nonempty" `Quick test_experiment_tables_nonempty;
    Alcotest.test_case "experiment claims hold" `Quick test_claims_hold;
  ]
