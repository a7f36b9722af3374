(* Tests for the owp_check invariant framework and the exhaustive LID
   interleaving explorer. *)

module Checker = Owp_check.Checker
module Violation = Owp_check.Violation
module Explore = Owp_check.Explore
module Lid = Owp_core.Lid
module Stack = Owp_core.Stack
module Lic = Owp_core.Lic
module Pipeline = Owp_core.Pipeline
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

let flagged report name =
  List.exists (fun v -> v.Violation.checker = name) (Checker.violations report)

let flagged_subject report name subject =
  List.exists
    (fun v ->
      v.Violation.checker = name && v.Violation.subject = subject)
    (Checker.violations report)

(* ------------------------------------------------------------------ *)
(* clean outputs pass every invariant                                   *)
(* ------------------------------------------------------------------ *)

let prop_lic_passes_all =
  QCheck2.Test.make ~name:"LIC output passes the full checker registry" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, p, w, capacity = random_instance seed 16 5 2 in
      let m = Lic.run w ~capacity in
      Checker.ok (Checker.run (Checker.of_matching ~prefs:p w m)))

let prop_lid_passes_all =
  QCheck2.Test.make ~name:"LID output passes the full checker registry" ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, p, w, capacity = random_instance seed 14 4 2 in
      let r = Stack.run ~seed w ~capacity in
      Checker.ok (Checker.run (Checker.of_matching ~prefs:p w r.Stack.matching)))

let prop_small_exact_certificates =
  (* instances small enough that theorem2/theorem3 are measured against
     the exact optimum, not just the structural conditions *)
  QCheck2.Test.make ~name:"measured Theorem 2/3 certificates hold on small instances"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, p, w, capacity = random_instance seed 6 4 2 in
      assert (Graph.edge_count g <= Checker.exact_satisfaction_limit);
      let m = Lic.run w ~capacity in
      Checker.ok
        (Checker.run ~only:[ "theorem2"; "theorem3" ]
           (Checker.of_matching ~prefs:p w m)))

let test_pipeline_check_modes () =
  let _, p, _, _ = random_instance 42 12 4 2 in
  let run ?(check = false) engine prefs =
    Pipeline.run_config (Owp_core.Run_config.make ~engine ~seed:3 ~check ()) prefs
  in
  List.iter
    (fun engine ->
      let out = run ~check:true engine p in
      match out.Pipeline.check_report with
      | None -> Alcotest.fail "check_report missing with ~check:true"
      | Some r ->
          if not (Checker.ok r) then
            Alcotest.failf "pipeline check failed:@.%s" (Checker.report_to_string r))
    [ Pipeline.Lid; Pipeline.Lic_indexed; Pipeline.Dynamics ];
  let out = run Pipeline.Lic_indexed p in
  Alcotest.(check bool) "no report without ~check" true (out.Pipeline.check_report = None)

(* ------------------------------------------------------------------ *)
(* mutated matchings are flagged with the right diagnostic              *)
(* ------------------------------------------------------------------ *)

let uniform_weights g = Weights.of_array g (Array.make (Graph.edge_count g) 1.0)

let test_quota_overflow_flagged () =
  let g = Gen.path 3 in
  let w = uniform_weights g in
  let inst = Checker.instance w ~capacity:[| 1; 1; 1 |] ~edges:[ 0; 1 ] in
  let r = Checker.run ~only:[ "edge-validity"; "quota" ] inst in
  Alcotest.(check bool) "edge ids themselves valid" false (flagged r "edge-validity");
  Alcotest.(check bool) "middle node over quota" true
    (flagged_subject r "quota" (Violation.Node 1));
  Alcotest.(check bool) "endpoints within quota" false
    (flagged_subject r "quota" (Violation.Node 0)
    || flagged_subject r "quota" (Violation.Node 2))

let test_duplicate_edge_flagged () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = uniform_weights g in
  let inst = Checker.instance w ~capacity:[| 2; 2 |] ~edges:[ 0; 0 ] in
  let r = Checker.run ~only:[ "edge-validity" ] inst in
  Alcotest.(check bool) "duplicate flagged" true
    (flagged_subject r "edge-validity" (Violation.Edge (0, 1)))

let test_out_of_range_edge_flagged () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = uniform_weights g in
  let inst = Checker.instance w ~capacity:[| 2; 2 |] ~edges:[ 7 ] in
  let r = Checker.run ~only:[ "edge-validity" ] inst in
  Alcotest.(check bool) "out-of-range id flagged" true (flagged r "edge-validity")

let test_asymmetric_weight_flagged () =
  let _, p, w, capacity = random_instance 7 8 3 2 in
  let g = Preference.graph p in
  (* corrupt one entry of the eq. 9 weight table *)
  let raw = Array.init (Graph.edge_count g) (Weights.weight w) in
  raw.(0) <- raw.(0) +. 0.5;
  let w_bad = Weights.of_array g raw in
  let u, v = Graph.edge_endpoints g 0 in
  let inst = Checker.instance ~prefs:p w_bad ~capacity ~edges:[] in
  let r = Checker.run ~only:[ "weight-symmetry" ] inst in
  Alcotest.(check bool) "corrupted edge flagged" true
    (flagged_subject r "weight-symmetry" (Violation.Edge (u, v)));
  (* and the uncorrupted table passes *)
  let r_ok =
    Checker.run ~only:[ "weight-symmetry" ]
      (Checker.instance ~prefs:p w ~capacity ~edges:[])
  in
  Alcotest.(check bool) "pristine table passes" true (Checker.ok r_ok)

let test_injected_blocking_pair_flagged () =
  let _, p, w, capacity = random_instance 11 10 4 2 in
  let m = Lic.run w ~capacity in
  match BM.edge_ids m with
  | [] -> Alcotest.fail "LIC selected nothing"
  | victim :: _ ->
      let g = Preference.graph p in
      let u, v = Graph.edge_endpoints g victim in
      let edges = List.filter (fun e -> e <> victim) (BM.edge_ids m) in
      let inst = Checker.instance ~prefs:p w ~capacity ~edges in
      let r = Checker.run ~only:[ "blocking-pair"; "maximality" ] inst in
      Alcotest.(check bool) "removed edge is a blocking pair" true
        (flagged_subject r "blocking-pair" (Violation.Edge (u, v)));
      Alcotest.(check bool) "matching no longer maximal" true
        (flagged_subject r "maximality" (Violation.Edge (u, v)))

let test_satisfaction_range_flagged () =
  (* a duplicated connection inflates eq. 1 beyond 1 (or overflows the
     quota, making it undefined) — both must surface as violations *)
  let g = Gen.star 3 in
  let rng = Prng.create 5 in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
  let w = Weights.of_preference p in
  let inst =
    Checker.instance ~prefs:p w
      ~capacity:(Array.init 3 (Preference.quota p))
      ~edges:[ 0; 0 ]
  in
  let r = Checker.run ~only:[ "satisfaction-range" ] inst in
  Alcotest.(check bool) "inflated satisfaction flagged" true
    (flagged r "satisfaction-range")

let test_empty_matching_fails_theorem2 () =
  let _, p, w, capacity = random_instance 13 6 4 2 in
  let inst = Checker.instance ~prefs:p w ~capacity ~edges:[] in
  let r = Checker.run ~only:[ "theorem2" ] inst in
  Alcotest.(check bool) "empty matching misses the measured 1/2 bound" true
    (flagged r "theorem2")

let test_unknown_checker_rejected () =
  let _, _, w, capacity = random_instance 17 6 3 1 in
  let inst = Checker.instance w ~capacity ~edges:[] in
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Checker.run: unknown checker \"no-such-check\"") (fun () ->
      ignore (Checker.run ~only:[ "no-such-check" ] inst))

(* ------------------------------------------------------------------ *)
(* exhaustive interleaving exploration (Lemmas 5 and 6)                 *)
(* ------------------------------------------------------------------ *)

let explore_instances () =
  let fixed =
    [
      ("P3/b1", Gen.path 3, 1);
      ("P4/b2", Gen.path 4, 2);
      ("C4/b1", Gen.ring 4, 1);
      ("C5/b2", Gen.ring 5, 2);
      ("star5/b1", Gen.star 5, 1);
      ("star5/b2", Gen.star 5, 2);
      ("K4/b2", Gen.complete 4, 2);
      ("K5/b1", Gen.complete 5, 1);
      ("K5/b2", Gen.complete 5, 2);
    ]
  in
  let random =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun n ->
            List.map
              (fun b ->
                let rng = Prng.create (seed + (100 * n) + (1000 * b)) in
                let m = min (n * (n - 1) / 2) (n + 1) in
                (Printf.sprintf "gnm(%d,%d)/b%d/s%d" n m b seed, Gen.gnm rng ~n ~m, b))
              [ 1; 2 ])
          [ 3; 4; 5 ])
      [ 1; 2 ]
  in
  fixed @ random

let test_explorer_verifies_lemma5_and_6 () =
  List.iter
    (fun (label, g, b) ->
      let rng = Prng.create 99 in
      let p = Preference.random rng g ~quota:(Preference.uniform_quota g b) in
      let w = Weights.of_preference p in
      let capacity = Array.init (Graph.node_count g) (Preference.quota p) in
      let verdict = Explore.explore (Lid.model w ~capacity) in
      if not (Explore.ok verdict) then
        Alcotest.failf "%s: explorer found violations:@.%s" label
          (Format.asprintf "%a" Explore.pp_verdict verdict);
      let lic = BM.edge_ids (Lic.run w ~capacity) in
      (match verdict.Explore.observations with
      | [ obs ] ->
          Alcotest.(check (list int))
            (label ^ ": all schedules agree with LIC (Lemma 6)")
            lic obs
      | obs ->
          Alcotest.failf "%s: %d distinct outcomes (Lemma 6 violated)" label
            (List.length obs));
      Alcotest.(check bool)
        (label ^ ": at least one schedule")
        true
        (verdict.Explore.stats.Explore.schedules >= 1);
      Alcotest.(check bool)
        (label ^ ": search complete")
        false verdict.Explore.stats.Explore.truncated)
    (explore_instances ())

(* a deliberately broken protocol: node 0 waits for an acknowledgement
   that node 1 never sends — the explorer must report the deadlock *)
let test_explorer_detects_deadlock () =
  let p =
    {
      Explore.init = (fun () -> (ref false, [ { Explore.src = 0; dst = 1; payload = 0 } ]));
      deliver = (fun _ ~src:_ ~dst:_ _ -> []);
      copy = (fun s -> ref !s);
      fingerprint = (fun s -> if !s then "t" else "f");
      quiesced = (fun s -> !s);
      stragglers = (fun _ -> [ 0 ]);
      observe = (fun _ -> []);
      msg_tag = (fun m -> m);
      give_up = None;
    }
  in
  let verdict = Explore.explore p in
  Alcotest.(check bool) "deadlock reported" true
    (List.exists
       (fun v -> v.Violation.checker = "explore-termination")
       verdict.Explore.violations)

(* a schedule-dependent protocol: the terminal observation is the
   arrival order at node 0 — the explorer must report the divergence *)
let test_explorer_detects_divergence () =
  let p =
    {
      Explore.init =
        (fun () ->
          ( ref [],
            [
              { Explore.src = 1; dst = 0; payload = 1 };
              { Explore.src = 2; dst = 0; payload = 2 };
            ] ));
      deliver =
        (fun s ~src:_ ~dst:_ m ->
          s := m :: !s;
          []);
      copy = (fun s -> ref !s);
      fingerprint = (fun s -> String.concat "," (List.map string_of_int !s));
      quiesced = (fun _ -> true);
      stragglers = (fun _ -> []);
      observe = (fun s -> List.rev !s);
      msg_tag = (fun m -> m);
      give_up = None;
    }
  in
  let verdict = Explore.explore p in
  Alcotest.(check int) "two interleavings" 2 verdict.Explore.stats.Explore.schedules;
  Alcotest.(check int) "two distinct outcomes" 2 (List.length verdict.Explore.observations);
  Alcotest.(check bool) "divergence reported" true
    (List.exists
       (fun v -> v.Violation.checker = "explore-divergence")
       verdict.Explore.violations)

(* ------------------------------------------------------------------ *)
(* LID quiescence diagnostics                                           *)
(* ------------------------------------------------------------------ *)

let test_lid_quiescence_violations () =
  (* fault-free runs: no quiescence violations *)
  let _, _, w, capacity = random_instance 23 15 4 2 in
  let r = Stack.run ~seed:1 w ~capacity in
  Alcotest.(check bool) "clean run terminated" true r.Stack.all_terminated;
  Alcotest.(check int) "no violations" 0 (List.length r.Stack.quiescence);
  (* under heavy message loss, some seed leaves stragglers; when it
     does, the report must name them *)
  let faults = Owp_simnet.Simnet.faults ~drop:0.7 () in
  let saw_failure = ref false in
  for seed = 0 to 20 do
    let _, _, w, capacity = random_instance (100 + seed) 20 6 2 in
    let r = Stack.run ~seed ~faults w ~capacity in
    if not r.Stack.all_terminated then begin
      saw_failure := true;
      Alcotest.(check bool)
        "violations name the stragglers" true
        (List.length r.Stack.quiescence > 0
        && List.for_all
             (fun v ->
               match v.Violation.subject with
               | Violation.Node _ -> v.Violation.checker = "lid-quiescence"
               | _ -> false)
             r.Stack.quiescence)
    end
    else
      Alcotest.(check int)
        "terminated run carries no violations" 0
        (List.length r.Stack.quiescence)
  done;
  Alcotest.(check bool) "fault injection exercised the failure path" true !saw_failure

(* ------------------------------------------------------------------ *)
(* blocking pairs against a naive per-edge reference                   *)
(* ------------------------------------------------------------------ *)

(* The reference rescans an endpoint's neighbours for its lightest
   selected edge once per unselected edge, sharing no code with the
   checkers.  Random edge subsets (infeasible ones included), random
   correct sets and consumed slots; uniform weights half the time, so
   the identity tie-break decides the order. *)
let naive_blocking g w sel ~residual ~admit =
  let lightest x =
    let best = ref (-1) in
    Graph.iter_neighbors g x (fun _ eid ->
        if sel.(eid) && (!best < 0 || Weights.heavier w !best eid) then best := eid);
    !best
  in
  let out = ref [] in
  Graph.iter_edges g (fun eid u v ->
      let beats x =
        if residual x > 0 then true
        else begin
          let light = lightest x in
          light >= 0 && Weights.heavier w eid light
        end
      in
      if (not sel.(eid)) && admit u v && beats u && beats v then
        out := Violation.Edge (u, v) :: !out);
  List.rev !out

let prop_blocking_pairs_match_naive =
  QCheck2.Test.make ~name:"blocking-pair checks = naive per-edge rescan" ~count:200
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (seed, uniform) ->
      let g, p, w, capacity = random_instance seed 18 5 2 in
      let w = if uniform then uniform_weights g else w in
      let rng = Prng.create (seed + 1) in
      let n = Graph.node_count g and m = Graph.edge_count g in
      let share = Prng.float rng 1.0 in
      let sel = Array.init m (fun _ -> Prng.bernoulli rng share) in
      let edges = List.filter (fun e -> sel.(e)) (List.init m Fun.id) in
      let d = Array.make n 0 in
      List.iter
        (fun e ->
          let u, v = Graph.edge_endpoints g e in
          d.(u) <- d.(u) + 1;
          d.(v) <- d.(v) + 1)
        edges;
      let subjects = List.map (fun v -> v.Violation.subject) in
      let checker =
        subjects
          (Checker.violations
             (Checker.run ~only:[ "blocking-pair" ]
                (Checker.instance ~prefs:p w ~capacity ~edges)))
      in
      let correct = Array.init n (fun _ -> Prng.bernoulli rng 0.8) in
      let consumed = Array.init n (fun i -> d.(i) + Prng.int rng 2) in
      let byz =
        Owp_check.Byzantine.check
          {
            Owp_check.Byzantine.weights = w;
            capacity;
            correct;
            edges;
            consumed;
            unterminated = [];
            overclaimed = [];
          }
        |> List.filter (fun v -> v.Violation.checker = "byzantine-blocking-pair")
        |> subjects
      in
      checker
      = naive_blocking g w sel
          ~residual:(fun x -> capacity.(x) - d.(x))
          ~admit:(fun _ _ -> true)
      && byz
         = naive_blocking g w sel
             ~residual:(fun x -> capacity.(x) - max consumed.(x) d.(x))
             ~admit:(fun u v -> correct.(u) && correct.(v)))

(* ------------------------------------------------------------------ *)
(* the registry against a per-checker reference                        *)
(* ------------------------------------------------------------------ *)

(* Every checker the way it was written before the registry shared one
   accounting of the edge list: a Hashtbl de-duplication, cover counts
   and connection lists rebuilt per checker, eq. 9 from Preference.rank
   and Satisfaction.static_delta per edge, eq. 1 from per-node
   connection lists through Preference.satisfaction, and each node's
   lightest selected edge by rescanning its row.  The messages are
   copied verbatim, so the two reports must be byte-equal. *)
module Reference = struct
  let valid g eid = eid >= 0 && eid < Graph.edge_count g
  let cap capacity i = if i < Array.length capacity then capacity.(i) else 0

  let degrees g edges =
    let d = Array.make (Graph.node_count g) 0 in
    List.iter
      (fun eid ->
        if valid g eid then begin
          let u, v = Graph.edge_endpoints g eid in
          d.(u) <- d.(u) + 1;
          d.(v) <- d.(v) + 1
        end)
      edges;
    d

  let connections g edges =
    let c = Array.make (Graph.node_count g) [] in
    List.iter
      (fun eid ->
        if valid g eid then begin
          let u, v = Graph.edge_endpoints g eid in
          c.(u) <- v :: c.(u);
          c.(v) <- u :: c.(v)
        end)
      edges;
    c

  let feasible g capacity edges =
    Array.length capacity = Graph.node_count g
    && List.for_all (valid g) edges
    && (let seen = Hashtbl.create 64 in
        List.for_all
          (fun eid ->
            (not (Hashtbl.mem seen eid))
            &&
            (Hashtbl.add seen eid ();
             true))
          edges)
    && Array.for_all Fun.id (Array.mapi (fun i d -> d <= cap capacity i) (degrees g edges))

  let edge_validity g edges =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun eid ->
        if not (valid g eid) then
          Some
            (Violation.v ~checker:"edge-validity" Violation.Global
               ~expected:(Printf.sprintf "edge id in [0, %d)" (Graph.edge_count g))
               ~actual:(Printf.sprintf "id %d" eid))
        else if Hashtbl.mem seen eid then begin
          let u, v = Graph.edge_endpoints g eid in
          Some
            (Violation.v ~checker:"edge-validity" (Violation.Edge (u, v))
               ~expected:"each edge selected at most once"
               ~actual:(Printf.sprintf "edge id %d duplicated" eid))
        end
        else begin
          Hashtbl.add seen eid ();
          None
        end)
      edges

  let quota g capacity edges =
    let n = Graph.node_count g in
    if Array.length capacity <> n then
      [
        Violation.v ~checker:"quota" Violation.Global
          ~expected:(Printf.sprintf "capacity vector of length %d" n)
          ~actual:(Printf.sprintf "length %d" (Array.length capacity));
      ]
    else begin
      let d = degrees g edges in
      List.filter_map
        (fun i ->
          if capacity.(i) < 0 then
            Some
              (Violation.v ~checker:"quota" (Violation.Node i) ~expected:"capacity >= 0"
                 ~actual:(Printf.sprintf "capacity %d" capacity.(i)))
          else if d.(i) > capacity.(i) then
            Some
              (Violation.v ~checker:"quota" (Violation.Node i)
                 ~expected:(Printf.sprintf "at most %d connections" capacity.(i))
                 ~actual:(Printf.sprintf "%d connections" d.(i)))
          else None)
        (List.init n Fun.id)
    end

  let weight_symmetry g prefs w =
    let side i j =
      let l = Preference.list_len prefs i and b = Preference.quota prefs i in
      if l = 0 || b = 0 then 0.0
      else Satisfaction.static_delta ~quota:b ~list_len:l ~rank:(Preference.rank prefs i j)
    in
    let acc = ref [] in
    Graph.iter_edges g (fun eid u v ->
        let expect = side u v +. side v u and got = Weights.weight w eid in
        if Float.abs (expect -. got) > 1e-9 || Float.is_nan got then
          acc :=
            Violation.v ~checker:"weight-symmetry" (Violation.Edge (u, v))
              ~expected:
                (Printf.sprintf "w(%d,%d) = %.6f = dS_%d(%d) + dS_%d(%d)" u v expect u v v u)
              ~actual:(Printf.sprintf "%.6f" got)
            :: !acc);
    List.rev !acc

  let satisfaction_range g prefs edges =
    let conns = connections g edges in
    List.filter_map
      (fun i ->
        let bad actual =
          Some
            (Violation.v ~checker:"satisfaction-range" (Violation.Node i)
               ~expected:"S_i in [0, 1]" ~actual)
        in
        match Preference.satisfaction prefs i conns.(i) with
        | s when Float.is_nan s || s < -1e-9 || s > 1.0 +. 1e-9 ->
            bad (Printf.sprintf "S_i = %.6f" s)
        | _ -> None
        | exception Invalid_argument msg -> bad (Printf.sprintf "S_i undefined (%s)" msg))
      (List.init (Graph.node_count g) Fun.id)

  (* unselected edges that block (or merely find room at) both ends *)
  let unselected g w capacity edges ~blocking =
    let sel = Array.make (Graph.edge_count g) false in
    List.iter (fun eid -> if valid g eid then sel.(eid) <- true) edges;
    let d = degrees g edges in
    let lightest x =
      let best = ref (-1) in
      Graph.iter_neighbors g x (fun _ eid ->
          if sel.(eid) && (!best < 0 || Weights.heavier w !best eid) then best := eid);
      !best
    in
    let residual x = cap capacity x - d.(x) in
    let acc = ref [] in
    Graph.iter_edges g (fun eid u v ->
        let ok x =
          if not blocking then residual x > 0
          else if residual x > 0 then cap capacity x > 0
          else
            let l = lightest x in
            l >= 0 && Weights.heavier w eid l
        in
        if (not sel.(eid)) && ok u && ok v then acc := (eid, u, v) :: !acc);
    List.rev !acc

  let report ?prefs w ~capacity ~edges =
    let g = Weights.graph w in
    let blocking = unselected g w capacity edges ~blocking:true in
    let augmenting = unselected g w capacity edges ~blocking:false in
    let feasible = feasible g capacity edges in
    let theorem2 () =
      if not feasible then []
      else if Graph.edge_count g <= Checker.exact_weight_limit then begin
        let opt =
          Owp_matching.Exact.max_weight_value ~max_edges:Checker.exact_weight_limit w
            ~capacity
        in
        let got = List.fold_left (fun acc eid -> acc +. Weights.weight w eid) 0.0 edges in
        if got +. 1e-9 < 0.5 *. opt then
          [
            Violation.v ~checker:"theorem2" Violation.Global
              ~expected:(Printf.sprintf "w(M) >= 1/2 w(OPT) = %.6f" (0.5 *. opt))
              ~actual:(Printf.sprintf "w(M) = %.6f" got);
          ]
        else []
      end
      else if blocking = [] && augmenting = [] then []
      else
        [
          Violation.v ~checker:"theorem2" Violation.Global
            ~expected:"maximality + greedy stability (Theorem 2 premise)"
            ~actual:
              (Printf.sprintf "maximal=%b, greedy-stable=%b" (augmenting = [])
                 (blocking = []));
        ]
    in
    let theorem3 prefs =
      if (not feasible) || Graph.edge_count g > Checker.exact_satisfaction_limit then []
      else begin
        let _, opt =
          Owp_matching.Exact.max_satisfaction_bmatching
            ~max_edges:Checker.exact_satisfaction_limit prefs
        in
        let got = Preference.total_satisfaction prefs (connections g edges) in
        let bound = 0.25 *. (1.0 +. (1.0 /. float_of_int (Preference.max_quota prefs))) in
        if got +. 1e-9 < bound *. opt then
          [
            Violation.v ~checker:"theorem3" Violation.Global
              ~expected:(Printf.sprintf "S(M) >= %.4f S(OPT) = %.6f" bound (bound *. opt))
              ~actual:(Printf.sprintf "S(M) = %.6f" got);
          ]
        else []
      end
    in
    let with_prefs f = match prefs with None -> [] | Some p -> f p in
    let violations = function
      | "edge-validity" -> edge_validity g edges
      | "quota" -> quota g capacity edges
      | "weight-symmetry" -> with_prefs (fun p -> weight_symmetry g p w)
      | "satisfaction-range" -> with_prefs (fun p -> satisfaction_range g p edges)
      | "blocking-pair" ->
          List.map
            (fun (eid, u, v) ->
              Violation.v ~checker:"blocking-pair" (Violation.Edge (u, v))
                ~expected:"no weighted blocking pair (Lemma 4/6 invariant)"
                ~actual:
                  (Printf.sprintf "unselected edge of weight %.6f blocks at both ends"
                     (Weights.weight w eid)))
            blocking
      | "maximality" ->
          List.map
            (fun (_, u, v) ->
              Violation.v ~checker:"maximality" (Violation.Edge (u, v))
                ~expected:"matching is maximal"
                ~actual:"unselected edge with residual capacity at both endpoints")
            augmenting
      | "theorem2" -> theorem2 ()
      | "theorem3" -> with_prefs theorem3
      | name -> Alcotest.failf "no reference for checker %s" name
    in
    {
      Checker.entries =
        List.map
          (fun c -> { Checker.checker = c; violations = violations c.Checker.name })
          Checker.all;
    }
end

(* A random instance (zero quotas included) and its LIC matching, then
   0-4 corruptions of the edge list, the capacities or the weights. *)
let prop_registry_matches_reference =
  QCheck2.Test.make ~name:"registry report = per-checker reference, byte for byte"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng (if Prng.bernoulli rng 0.7 then 8 else 22) in
      let m = min (n * (n - 1) / 2) (n + Prng.int rng (2 * n)) in
      let g = Gen.gnm rng ~n ~m in
      let p = Preference.random rng g ~quota:(Array.init n (fun _ -> Prng.int rng 4)) in
      let w = Weights.of_preference p in
      let capacity = Array.init n (Preference.quota p) in
      let edges = ref (BM.edge_ids (Lic.run w ~capacity)) in
      let capacity = ref capacity and w = ref w in
      let insert e =
        let k = Prng.int rng (List.length !edges + 1) in
        edges :=
          List.filteri (fun i _ -> i < k) !edges
          @ (e :: List.filteri (fun i _ -> i >= k) !edges)
      in
      for _ = 1 to Prng.int rng 5 do
        match Prng.int rng 9 with
        | 0 ->
            insert
              (if Prng.bernoulli rng 0.5 then m + Prng.int rng 3 else -1 - Prng.int rng 3)
        | 1 -> (
            match !edges with
            | [] -> ()
            | l -> insert (List.nth l (Prng.int rng (List.length l))))
        | 2 -> (
            match !edges with
            | [] -> ()
            | l ->
                let k = Prng.int rng (List.length l) in
                edges := List.filteri (fun i _ -> i <> k) l)
        | 3 -> if m > 0 then insert (Prng.int rng m)
        | 4 ->
            (* over quota: every edge at one node *)
            let x = Prng.int rng n in
            Graph.iter_neighbors g x (fun _ eid ->
                if not (List.mem eid !edges) then insert eid)
        | (5 | 6) as k ->
            (* a zero or a negative capacity *)
            let c = Array.copy !capacity in
            c.(Prng.int rng (Array.length c)) <- 5 - k;
            capacity := c
        | 7 -> capacity := Array.sub !capacity 0 (min (n - 1) (Array.length !capacity))
        | _ ->
            let other = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
            w := Weights.of_preference other
      done;
      let prefs = if Prng.bernoulli rng 0.85 then Some p else None in
      let capacity = !capacity and edges = !edges and w = !w in
      let got =
        Checker.report_to_string (Checker.run (Checker.instance ?prefs w ~capacity ~edges))
      in
      let want = Checker.report_to_string (Reference.report ?prefs w ~capacity ~edges) in
      if got <> want then
        QCheck2.Test.fail_reportf "registry:@.%s@.reference:@.%s" got want;
      true)

(* One edge id listed twice at a quota-1 node is three faults, each
   counted with multiplicity: a duplicate, two connections against a
   quota of 1, and eq. 1 undefined.  The other endpoint has quota 2 and
   ranks the edge last, so its S_i = 0.75 is in range. *)
let test_duplicate_multiplicity () =
  let g = Gen.path 3 in
  let p =
    Preference.create g ~quota:[| 1; 2; 1 |] ~lists:[| [| 1 |]; [| 2; 0 |]; [| 1 |] |]
  in
  let w = Weights.of_preference p in
  let e = Option.get (Graph.find_edge g 0 1) in
  let inst =
    Checker.instance ~prefs:p w
      ~capacity:(Array.init 3 (Preference.quota p))
      ~edges:[ e; e ]
  in
  let r = Checker.run ~only:[ "edge-validity"; "quota"; "satisfaction-range" ] inst in
  let line v = (v.Violation.checker, v.Violation.subject, v.Violation.actual) in
  Alcotest.(check int) "three violations" 3 (Checker.violation_count r);
  Alcotest.(check bool) "duplicate, quota overflow, undefined S_0" true
    (List.map line (Checker.violations r)
    = [
        ("edge-validity", Violation.Edge (0, 1), Printf.sprintf "edge id %d duplicated" e);
        ("quota", Violation.Node 0, "2 connections");
        ( "satisfaction-range",
          Violation.Node 0,
          "S_i undefined (Satisfaction: more connections than quota)" );
      ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lic_passes_all;
    QCheck_alcotest.to_alcotest prop_lid_passes_all;
    QCheck_alcotest.to_alcotest prop_small_exact_certificates;
    Alcotest.test_case "pipeline ~check modes" `Quick test_pipeline_check_modes;
    Alcotest.test_case "quota overflow flagged" `Quick test_quota_overflow_flagged;
    Alcotest.test_case "duplicate edge flagged" `Quick test_duplicate_edge_flagged;
    Alcotest.test_case "out-of-range edge flagged" `Quick test_out_of_range_edge_flagged;
    Alcotest.test_case "asymmetric weight flagged" `Quick test_asymmetric_weight_flagged;
    Alcotest.test_case "injected blocking pair flagged" `Quick
      test_injected_blocking_pair_flagged;
    Alcotest.test_case "satisfaction range flagged" `Quick test_satisfaction_range_flagged;
    Alcotest.test_case "empty matching fails theorem2" `Quick
      test_empty_matching_fails_theorem2;
    Alcotest.test_case "unknown checker rejected" `Quick test_unknown_checker_rejected;
    Alcotest.test_case "explorer: Lemma 5+6 on all FIFO schedules" `Quick
      test_explorer_verifies_lemma5_and_6;
    Alcotest.test_case "explorer detects deadlock" `Quick test_explorer_detects_deadlock;
    Alcotest.test_case "explorer detects divergence" `Quick
      test_explorer_detects_divergence;
    Alcotest.test_case "LID quiescence diagnostics" `Quick test_lid_quiescence_violations;
    QCheck_alcotest.to_alcotest prop_blocking_pairs_match_naive;
    QCheck_alcotest.to_alcotest prop_registry_matches_reference;
    Alcotest.test_case "duplicate id counts with multiplicity" `Quick
      test_duplicate_multiplicity;
  ]
