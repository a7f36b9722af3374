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
  Alcotest.(check int) "twenty-seven experiments" 27 (List.length E.all);
  Alcotest.(check bool) "find e3" true (E.find "e3" <> None);
  Alcotest.(check bool) "find e27" true (E.find "e27" <> None);
  Alcotest.(check bool) "e28 folded into e23" true (E.find "e28" = None);
  Alcotest.(check bool) "e19 folded into e25" true (E.find "e19" = None);
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
          let tables = e.Owp_bench.Exp_common.run ~quick:true in
          Alcotest.(check bool) (id ^ " has tables") true (List.length tables > 0);
          List.iter
            (fun t ->
              Alcotest.(check bool) "renders" true
                (String.length (Owp_util.Tablefmt.render t) > 0))
            tables)
    [ "e1"; "e2" ]

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
  ]
