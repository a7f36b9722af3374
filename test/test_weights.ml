module P = Preference
module W = Weights
module Prng = Owp_util.Prng

let tiny () =
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 2) ] in
  let lists = [| [| 1 |]; [| 2; 0 |]; [| 1 |] |] in
  (g, P.create g ~quota:[| 1; 2; 1 |] ~lists)

let test_eq9_value () =
  let g, p = tiny () in
  let w = W.of_preference p in
  (* edge (0,1): node 0 side = (1 - 0/1)/1 = 1; node 1 side = (1 - 1/2)/2 = 0.25 *)
  (match Graph.find_edge g 0 1 with
  | Some e -> Alcotest.(check (float 1e-9)) "w(0,1)" 1.25 (W.weight w e)
  | None -> Alcotest.fail "edge");
  (* edge (1,2): node 1 side = (1 - 0/2)/2 = 0.5; node 2 side = 1 *)
  match Graph.find_edge g 1 2 with
  | Some e -> Alcotest.(check (float 1e-9)) "w(1,2)" 1.5 (W.weight w e)
  | None -> Alcotest.fail "edge"

let test_combiners () =
  let g, p = tiny () in
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let sum = W.of_preference ~combiner:W.Sum p in
  let wmin = W.of_preference ~combiner:W.Min p in
  let prod = W.of_preference ~combiner:W.Product p in
  Alcotest.(check (float 1e-9)) "min(0,1)" 0.25 (W.weight wmin e01);
  Alcotest.(check (float 1e-9)) "prod(0,1)" 0.25 (W.weight prod e01);
  Alcotest.(check (float 1e-9)) "sum(0,1)" 1.25 (W.weight sum e01)

let test_of_array_arity () =
  let g = Gen.ring 4 in
  Alcotest.check_raises "arity" (Invalid_argument "Weights.of_array: arity mismatch")
    (fun () -> ignore (W.of_array g [| 1.0 |]))

let test_of_array_non_finite () =
  (* ring edges: 0 = (0, 1), 1 = (1, 2), 2 = (2, 3), 3 = (0, 3) *)
  let g = Gen.ring 4 in
  Alcotest.check_raises "nan"
    (Invalid_argument "Weights.of_array: edge 2 (2, 3) has non-finite weight nan") (fun () ->
      ignore (W.of_array g [| 1.0; 1.0; Float.nan; 1.0 |]));
  Alcotest.check_raises "inf"
    (Invalid_argument "Weights.of_array: edge 3 (0, 3) has non-finite weight inf") (fun () ->
      ignore (W.of_array g [| 1.0; 1.0; 1.0; Float.infinity |]));
  Alcotest.check_raises "-inf"
    (Invalid_argument "Weights.of_array: edge 0 (0, 1) has non-finite weight -inf") (fun () ->
      ignore (W.of_array g [| Float.neg_infinity; 1.0; 1.0; 1.0 |]));
  (* ties stay legal: the identity tie-break orders them *)
  let w = W.of_array g [| 1.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check int) "tied weights" 1 (W.distinct_weights w)

let test_total_order () =
  let g = Gen.gnm (Prng.create 3) ~n:20 ~m:60 in
  (* heavy ties: only two distinct weights *)
  let w = W.of_array g (Array.init 60 (fun e -> if e mod 2 = 0 then 1.0 else 2.0)) in
  Alcotest.(check int) "two distinct" 2 (W.distinct_weights w);
  (* the order as a (weight, lower endpoint, upper endpoint, id) tuple *)
  let reference e f =
    let c = Float.compare (W.weight w e) (W.weight w f) in
    if c <> 0 then c
    else
      let ue, ve = Graph.edge_endpoints g e and uf, vf = Graph.edge_endpoints g f in
      compare (ue, ve, e) (uf, vf, f)
  in
  for e = 0 to 59 do
    Alcotest.(check int) "reflexive zero" 0 (W.compare_edges w e e);
    for f = 0 to 59 do
      if e <> f then begin
        let c = W.compare_edges w e f in
        Alcotest.(check bool) "strict" true (c <> 0);
        Alcotest.(check int) "antisymmetric" (-c) (W.compare_edges w f e);
        Alcotest.(check int) "tuple order" (reference e f) c
      end
    done
  done

let test_order_transitive_spot () =
  let g = Gen.gnm (Prng.create 5) ~n:12 ~m:30 in
  let w = W.of_array g (Array.make 30 1.0) in
  (* all-equal weights: order must still be total and transitive *)
  let sorted = List.init 30 Fun.id |> List.sort (W.compare_edges w) in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "ascending" true (W.compare_edges w a b < 0);
        check_sorted rest
    | _ -> ()
  in
  check_sorted sorted

let test_heavier_consistent () =
  let g, p = tiny () in
  let w = W.of_preference p in
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let e12 = Option.get (Graph.find_edge g 1 2) in
  Alcotest.(check bool) "1.5 beats 1.25" true (W.heavier w e12 e01);
  Alcotest.(check bool) "asym" false (W.heavier w e01 e12)

let test_positive_on_quota_graphs () =
  let g = Gen.gnm (Prng.create 13) ~n:50 ~m:150 in
  let p = P.random (Prng.create 14) g ~quota:(P.uniform_quota g 3) in
  let w = W.of_preference p in
  Graph.iter_edges g (fun e _ _ ->
      Alcotest.(check bool) "eq9 weight positive" true (W.weight w e > 0.0))

(* eq. 9 per edge, written from [Preference.rank]: the reference the
   one-pass, slot-reading [of_preference] must reproduce bit for bit *)
let reference_half p i j =
  let l = P.list_len p i and b = P.quota p i in
  if l = 0 || b = 0 then 0.0
  else begin
    let b = float_of_int b and l = float_of_int l in
    (1.0 /. b) -. (float_of_int (P.rank p i j) /. (b *. l))
  end

let prop_of_preference_by_slot =
  QCheck2.Test.make ~name:"eq. 9 by slot is bit-identical to the rank reference" ~count:300
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      (* isolated nodes are likely, and quotas include 0 *)
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 20 in
      let g = Gen.gnm rng ~n ~m:(Prng.int rng ((n * (n - 1) / 2) + 1)) in
      let p = P.random rng g ~quota:(Array.init n (fun _ -> Prng.int rng 4)) in
      List.for_all
        (fun (combiner, combine) ->
          let w = W.of_preference ~combiner p in
          let ok = ref true in
          Graph.iter_edges g (fun e u v ->
              if
                not
                  (Float.equal (W.weight w e)
                     (combine (reference_half p u v) (reference_half p v u))
                  && Float.equal (W.half p u v) (reference_half p u v)
                  && Float.equal (W.half p v u) (reference_half p v u))
              then ok := false);
          !ok)
        [ (W.Sum, ( +. )); (W.Min, Float.min); (W.Product, ( *. )) ])

let suite =
  [
    Alcotest.test_case "eq. 9 value" `Quick test_eq9_value;
    Alcotest.test_case "combiners" `Quick test_combiners;
    Alcotest.test_case "of_array arity" `Quick test_of_array_arity;
    Alcotest.test_case "total order" `Quick test_total_order;
    Alcotest.test_case "order transitive spot" `Quick test_order_transitive_spot;
    Alcotest.test_case "heavier consistent" `Quick test_heavier_consistent;
    Alcotest.test_case "positive on quota graphs" `Quick test_positive_on_quota_graphs;
    QCheck_alcotest.to_alcotest prop_of_preference_by_slot;
    Alcotest.test_case "of_array rejects non-finite" `Quick test_of_array_non_finite;
  ]
