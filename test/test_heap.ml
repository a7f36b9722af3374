module Heap = Owp_util.Heap
module Prng = Owp_util.Prng

module IntHeap = Heap.Make (Int)

let test_empty () =
  let h = IntHeap.create () in
  Alcotest.(check bool) "empty" true (IntHeap.is_empty h);
  Alcotest.(check int) "length" 0 (IntHeap.length h);
  Alcotest.(check (option int)) "pop empty" None (IntHeap.pop_min_opt h)

let test_min_raises () =
  let h = IntHeap.create () in
  Alcotest.check_raises "min_elt" (Invalid_argument "Heap.min_elt: empty heap") (fun () ->
      ignore (IntHeap.min_elt h));
  Alcotest.check_raises "pop_min" (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (IntHeap.pop_min h))

let test_peek () =
  let h = IntHeap.create () in
  Alcotest.(check (option int)) "peek empty" None (IntHeap.peek_min_opt h);
  IntHeap.add h 4;
  IntHeap.add h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (IntHeap.peek_min_opt h);
  Alcotest.(check int) "peek does not remove" 2 (IntHeap.length h);
  ignore (IntHeap.pop_min h);
  Alcotest.(check (option int)) "peek next" (Some 4) (IntHeap.peek_min_opt h)

let test_sorted_drain () =
  let h = IntHeap.of_array [| 5; 3; 8; 1; 9; 2; 7 |] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (IntHeap.to_sorted_list h)

let test_duplicates () =
  let h = IntHeap.of_array [| 4; 4; 4; 1; 1 |] in
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 4; 4; 4 ] (IntHeap.to_sorted_list h)

let test_interleaved () =
  let h = IntHeap.create () in
  IntHeap.add h 5;
  IntHeap.add h 1;
  Alcotest.(check int) "min" 1 (IntHeap.pop_min h);
  IntHeap.add h 0;
  IntHeap.add h 9;
  Alcotest.(check int) "min2" 0 (IntHeap.pop_min h);
  Alcotest.(check int) "min3" 5 (IntHeap.pop_min h);
  Alcotest.(check int) "min4" 9 (IntHeap.pop_min h);
  Alcotest.(check bool) "drained" true (IntHeap.is_empty h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drain equals sort" ~count:200
    QCheck2.Gen.(array_size (int_range 0 200) int)
    (fun a ->
      let h = IntHeap.of_array a in
      let drained = IntHeap.to_sorted_list h in
      let expected = List.sort compare (Array.to_list a) in
      drained = expected)

let test_keyed_basic () =
  let h = Heap.Keyed.create 10 in
  Heap.Keyed.insert h 3 5.0;
  Heap.Keyed.insert h 7 1.0;
  Heap.Keyed.insert h 1 3.0;
  let k, p = Heap.Keyed.pop_min h in
  Alcotest.(check int) "min key" 7 k;
  Alcotest.(check (float 1e-9)) "min prio" 1.0 p;
  let rest = List.init 2 (fun _ -> fst (Heap.Keyed.pop_min h)) in
  Alcotest.(check (list int)) "7 gone, the rest in order" [ 1; 3 ] rest;
  Alcotest.(check bool) "drained" true (Heap.Keyed.is_empty h)

let test_keyed_decrease () =
  let h = Heap.Keyed.create 10 in
  Heap.Keyed.insert h 0 10.0;
  Heap.Keyed.insert h 1 20.0;
  Heap.Keyed.insert_or_decrease h 1 5.0;
  let k, _ = Heap.Keyed.pop_min h in
  Alcotest.(check int) "decreased wins" 1 k;
  (* decrease with a larger value is a no-op *)
  Heap.Keyed.insert_or_decrease h 0 99.0;
  Alcotest.(check (float 1e-9)) "unchanged" 10.0 (snd (Heap.Keyed.pop_min h))

let test_keyed_insert_or_decrease () =
  let h = Heap.Keyed.create 4 in
  Heap.Keyed.insert_or_decrease h 2 8.0;
  Heap.Keyed.insert_or_decrease h 2 3.0;
  Heap.Keyed.insert_or_decrease h 2 9.0;
  Alcotest.(check (pair int (float 1e-9))) "min kept" (2, 3.0) (Heap.Keyed.pop_min h);
  Alcotest.(check bool) "one entry per key" true (Heap.Keyed.is_empty h)

let test_keyed_errors () =
  let h = Heap.Keyed.create 4 in
  Heap.Keyed.insert h 0 1.0;
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Heap.Keyed.insert: key already present") (fun () ->
      Heap.Keyed.insert h 0 2.0);
  ignore (Heap.Keyed.pop_min h);
  Alcotest.check_raises "pop from empty" (Invalid_argument "Heap.Keyed.pop_min: empty heap")
    (fun () -> ignore (Heap.Keyed.pop_min h))

let prop_keyed_pops_sorted =
  QCheck2.Test.make ~name:"keyed heap pops ascending priorities" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) (pair (int_range 0 63) (float_range 0.0 100.0)))
    (fun pairs ->
      let h = Heap.Keyed.create 64 in
      List.iter (fun (k, p) -> Heap.Keyed.insert_or_decrease h k p) pairs;
      let rec drain last =
        if Heap.Keyed.is_empty h then true
        else begin
          let _, p = Heap.Keyed.pop_min h in
          p >= last && drain p
        end
      in
      drain neg_infinity)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "min raises" `Quick test_min_raises;
    Alcotest.test_case "peek_min_opt" `Quick test_peek;
    Alcotest.test_case "sorted drain" `Quick test_sorted_drain;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "interleaved ops" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "keyed basic" `Quick test_keyed_basic;
    Alcotest.test_case "keyed decrease" `Quick test_keyed_decrease;
    Alcotest.test_case "keyed insert_or_decrease" `Quick test_keyed_insert_or_decrease;
    Alcotest.test_case "keyed errors" `Quick test_keyed_errors;
    QCheck_alcotest.to_alcotest prop_keyed_pops_sorted;
  ]
