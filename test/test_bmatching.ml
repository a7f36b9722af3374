module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let square () = Graph.of_edge_list 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ]

let test_empty () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 1; 1; 1; 1 |] in
  Alcotest.(check int) "size" 0 (BM.size m);
  Alcotest.(check (list int)) "no edges" [] (BM.edge_ids m);
  Alcotest.(check int) "residual" 1 (BM.residual m 0);
  Alcotest.(check bool) "not maximal" false (BM.is_maximal m)

let test_of_edge_ids () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  Alcotest.(check int) "size" 2 (BM.size m);
  Alcotest.(check bool) "mem 0" true (BM.mem m 0);
  Alcotest.(check bool) "mem 1" false (BM.mem m 1);
  Alcotest.(check (list int)) "connections of 0" [ 1 ] (BM.connections m 0);
  Alcotest.(check bool) "maximal" true (BM.is_maximal m);
  Alcotest.(check bool) "saturated" true (BM.residual m 0 = 0)

let test_capacity_enforced () =
  let g = square () in
  Alcotest.check_raises "over capacity"
    (Invalid_argument "Bmatching.of_edge_ids: capacity exceeded") (fun () ->
      ignore (BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 1 ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Bmatching.of_edge_ids: duplicate edge id")
    (fun () -> ignore (BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 0 ]));
  Alcotest.check_raises "range" (Invalid_argument "Bmatching.of_edge_ids: edge id out of range")
    (fun () -> ignore (BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 9 ]))

let test_b2_allows_two () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "all four" 4 (BM.size m);
  Alcotest.(check int) "degree 2" 2 (BM.degree m 1);
  Alcotest.(check (list int)) "connections sorted" [ 0; 2 ] (BM.connections m 1)

let test_add_remove () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 1; 1; 1; 1 |] in
  let m1 = BM.add m 0 in
  Alcotest.(check int) "added" 1 (BM.size m1);
  Alcotest.(check int) "original untouched" 0 (BM.size m);
  let m2 = BM.remove m1 0 in
  Alcotest.(check int) "removed" 0 (BM.size m2);
  Alcotest.check_raises "remove absent" (Invalid_argument "Bmatching.remove: edge not selected")
    (fun () -> ignore (BM.remove m 0));
  Alcotest.check_raises "add infeasible" (Invalid_argument "Bmatching.add: capacity exceeded")
    (fun () -> ignore (BM.add m1 1))

let test_equal_and_symdiff () =
  let g = square () in
  let a = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 0; 2 ] in
  let b = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 2; 0 ] in
  let c = BM.of_edge_ids g ~capacity:[| 2; 2; 2; 2 |] [ 1; 2 ] in
  Alcotest.(check bool) "order irrelevant" true (BM.equal a b);
  Alcotest.(check bool) "different" false (BM.equal a c);
  Alcotest.(check (list int)) "symdiff" [ 0; 1 ] (BM.symmetric_difference a c)

let test_weight () =
  let g = square () in
  let w = Weights.of_array g [| 1.0; 2.0; 3.0; 4.0 |] in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  Alcotest.(check (float 1e-9)) "weight sum" 4.0 (BM.weight m w)

let test_connection_lists () =
  let g = square () in
  let m = BM.of_edge_ids g ~capacity:[| 1; 1; 1; 1 |] [ 0; 2 ] in
  let lists = BM.connection_lists m in
  Alcotest.(check (list int)) "node 0" [ 1 ] lists.(0);
  Alcotest.(check (list int)) "node 3" [ 2 ] lists.(3)

let test_zero_capacity () =
  let g = square () in
  let m = BM.empty g ~capacity:[| 0; 0; 0; 0 |] in
  Alcotest.(check bool) "maximal trivially" true (BM.is_maximal m);
  Alcotest.check_raises "cannot add" (Invalid_argument "Bmatching.add: capacity exceeded")
    (fun () -> ignore (BM.add m 0))

let prop_construction_respects_capacity =
  QCheck2.Test.make ~name:"valid constructions keep degree <= capacity" ~count:200
    QCheck2.Gen.(
      pair (int_range 0 1000) (list_size (int_range 0 30) (int_range 0 59)))
    (fun (seed, candidate) ->
      let g = Gen.gnm (Prng.create seed) ~n:15 ~m:60 in
      let capacity = Array.make 15 2 in
      let dedup = List.sort_uniq compare candidate in
      match BM.of_edge_ids g ~capacity dedup with
      | m ->
          let ok = ref true in
          for v = 0 to 14 do
            if BM.degree m v > 2 then ok := false
          done;
          !ok
      | exception Invalid_argument _ -> true)

(* --- the flat representation against a naive sorted-list model ----- *)

(* a random graph (isolated nodes likely), capacities in 0..3 (some 0)
   and random weights *)
let random_instance seed =
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 12 in
  let g = Gen.gnm rng ~n ~m:(Prng.int rng ((n * (n - 1) / 2) + 1)) in
  let capacity = Array.init n (fun _ -> Prng.int rng 4) in
  let w =
    Weights.of_array g (Array.init (Graph.edge_count g) (fun _ -> Prng.float rng 1.0))
  in
  (g, capacity, w)

(* the model: selected ids, ascending; degrees are recounted on demand *)
let model_degree g ids i =
  let touches e = let u, v = Graph.edge_endpoints g e in u = i || v = i in
  List.length (List.filter touches ids)

let model_add g capacity ids eid =
  if eid < 0 || eid >= Graph.edge_count g then Error "Bmatching.add: edge id out of range"
  else if List.mem eid ids then Error "Bmatching.add: edge already selected"
  else begin
    let u, v = Graph.edge_endpoints g eid in
    if model_degree g ids u >= capacity.(u) || model_degree g ids v >= capacity.(v) then
      Error "Bmatching.add: capacity exceeded"
    else Ok (List.sort Int.compare (eid :: ids))
  end

let model_remove ids eid =
  if List.mem eid ids then Ok (List.filter (fun e -> e <> eid) ids)
  else Error "Bmatching.remove: edge not selected"

let model_of_edge_ids g capacity candidate =
  List.fold_left
    (fun acc eid ->
      Result.bind acc (fun ids ->
          if eid < 0 || eid >= Graph.edge_count g then
            Error "Bmatching.of_edge_ids: edge id out of range"
          else if List.mem eid ids then Error "Bmatching.of_edge_ids: duplicate edge id"
          else
            Result.map_error
              (fun _ -> "Bmatching.of_edge_ids: capacity exceeded")
              (model_add g capacity ids eid)))
    (Ok []) candidate

(* the real operation's outcome, as the model spells it *)
let outcome f = match f () with m -> Ok m | exception Invalid_argument msg -> Error msg

let agrees g capacity w ids m =
  let m_count = Graph.edge_count g in
  let incident i =
    List.filter_map
      (fun e ->
        let u, v = Graph.edge_endpoints g e in
        if u = i then Some v else if v = i then Some u else None)
      ids
    |> List.sort Int.compare
  in
  List.for_all
    (fun e -> Bool.equal (BM.mem m e) (List.mem e ids))
    (List.init (m_count + 2) (fun e -> e - 1))
  && BM.edge_ids m = ids
  && BM.size m = List.length ids
  && List.for_all
       (fun i ->
         BM.degree m i = model_degree g ids i
         && BM.residual m i = capacity.(i) - model_degree g ids i
         && BM.connections m i = incident i)
       (List.init (Graph.node_count g) Fun.id)
  && Float.equal (BM.weight m w)
       (List.fold_left (fun acc e -> acc +. Weights.weight w e) 0.0 ids)
  &&
  let maximal = ref true in
  Graph.iter_edges g (fun e u v ->
      if
        not
          (List.mem e ids
          || model_degree g ids u >= capacity.(u)
          || model_degree g ids v >= capacity.(v))
      then maximal := false);
  Bool.equal (BM.is_maximal m) !maximal

let prop_flat_matches_model =
  QCheck2.Test.make ~name:"flat matching agrees with a sorted-list model" ~count:300
    QCheck2.Gen.(
      triple (int_range 0 100_000)
        (list_size (int_range 0 8) (int_range 0 1000))
        (list_size (int_range 0 30) (pair bool (int_range 0 1000))))
    (fun (seed, candidate, ops) ->
      let g, capacity, w = random_instance seed in
      (* ids in [-1, m]: both out-of-range neighbours are drawn too *)
      let id x = (x mod (Graph.edge_count g + 2)) - 1 in
      let candidate = List.map id candidate in
      let rec go ids m = function
        | [] -> true
        | (is_add, x) :: rest -> (
            let eid = id x in
            let expected, got =
              if is_add then (model_add g capacity ids eid, outcome (fun () -> BM.add m eid))
              else (model_remove ids eid, outcome (fun () -> BM.remove m eid))
            in
            match (expected, got) with
            | Error a, Error b ->
                String.equal a b && agrees g capacity w ids m && go ids m rest
            | Ok ids', Ok m' ->
                let symdiff =
                  List.filter (fun e -> not (List.mem e ids')) ids
                  @ List.filter (fun e -> not (List.mem e ids)) ids'
                  |> List.sort Int.compare
                in
                agrees g capacity w ids' m'
                && Bool.equal (BM.equal m m') (symdiff = [])
                && BM.symmetric_difference m m' = symdiff
                && BM.symmetric_difference m' m = symdiff
                && go ids' m' rest
            | _ -> false)
      in
      (* a rejected construction leaves the sequence to start empty *)
      match
        ( model_of_edge_ids g capacity candidate,
          outcome (fun () -> BM.of_edge_ids g ~capacity candidate) )
      with
      | Error a, Error b -> String.equal a b && go [] (BM.empty g ~capacity) ops
      | Ok ids, Ok m -> agrees g capacity w ids m && go ids m ops
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- eq. 1 by adjacency slot ------------------------------------------ *)

(* a random instance with isolated and quota-0 nodes, and a random
   feasible matching over it *)
let random_matching seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 20 in
  let g = Gen.gnm rng ~n ~m:(Prng.int rng ((n * (n - 1) / 2) + 1)) in
  let prefs = Preference.random rng g ~quota:(Array.init n (fun _ -> Prng.int rng 4)) in
  let capacity = Array.init n (Preference.quota prefs) in
  let order = Array.init (Graph.edge_count g) Fun.id in
  Prng.shuffle_in_place rng order;
  let m =
    Array.fold_left
      (fun m e ->
        let u, v = Graph.edge_endpoints g e in
        if BM.residual m u > 0 && BM.residual m v > 0 && Prng.bernoulli rng 0.7 then BM.add m e
        else m)
      (BM.empty g ~capacity) order
  in
  (prefs, m)

let prop_satisfaction_by_slot =
  QCheck2.Test.make ~name:"eq. 1 by slot is bit-identical to the rank lookup" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let prefs, m = random_matching seed in
      List.for_all
        (fun i ->
          Float.equal (BM.satisfaction prefs m i)
            (Preference.satisfaction prefs i (BM.connections m i)))
        (List.init (Graph.node_count (BM.graph m)) Fun.id))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "of_edge_ids" `Quick test_of_edge_ids;
    Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
    Alcotest.test_case "b=2 allows two" `Quick test_b2_allows_two;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "equal and symdiff" `Quick test_equal_and_symdiff;
    Alcotest.test_case "weight" `Quick test_weight;
    Alcotest.test_case "connection lists" `Quick test_connection_lists;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    QCheck_alcotest.to_alcotest prop_construction_respects_capacity;
    QCheck_alcotest.to_alcotest prop_flat_matches_model;
    QCheck_alcotest.to_alcotest prop_satisfaction_by_slot;
  ]
