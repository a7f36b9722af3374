module S = Satisfaction

let feq = Alcotest.(check (float 1e-9))

let test_figure1 () =
  (* the paper's Figure 1: b_i = 4, L_i = 7, connections at preference
     ranks 0, 1, 3 and 5; the paper reports S_i = 0.893 *)
  let s = S.of_ranks ~quota:4 ~list_len:7 [ 0; 1; 3; 5 ] in
  feq "paper value 25/28" (25.0 /. 28.0) s;
  Alcotest.(check bool) "rounds to 0.893" true (Float.abs (s -. 0.893) < 5e-4)

let test_perfect () =
  let perfect ~quota ~list_len = S.of_ranks ~quota ~list_len (List.init quota Fun.id) in
  feq "top-b is 1" 1.0 (perfect ~quota:4 ~list_len:7);
  feq "b=1" 1.0 (perfect ~quota:1 ~list_len:10);
  feq "b=L" 1.0 (perfect ~quota:5 ~list_len:5)

let test_empty_connections () = feq "no connections" 0.0 (S.of_ranks ~quota:3 ~list_len:5 [])

let test_single_worst () =
  (* one connection at the bottom of the list *)
  let s = S.of_ranks ~quota:1 ~list_len:10 [ 9 ] in
  feq "worst single" (1.0 -. (9.0 /. 10.0)) s

let test_order_irrelevant () =
  let a = S.of_ranks ~quota:3 ~list_len:8 [ 1; 4; 6 ] in
  let b = S.of_ranks ~quota:3 ~list_len:8 [ 6; 1; 4 ] in
  feq "permutation invariant" a b

let test_of_ranks_errors () =
  Alcotest.check_raises "too many" (Invalid_argument "Satisfaction: more connections than quota")
    (fun () -> ignore (S.of_ranks ~quota:2 ~list_len:5 [ 0; 1; 2 ]));
  Alcotest.check_raises "bad rank" (Invalid_argument "Satisfaction: rank out of range")
    (fun () -> ignore (S.of_ranks ~quota:2 ~list_len:5 [ 5 ]));
  Alcotest.check_raises "bad quota" (Invalid_argument "Satisfaction: quota must be positive")
    (fun () -> ignore (S.of_ranks ~quota:0 ~list_len:5 []))

let test_delta_matches_parts () =
  (* eq. 4 = static + the discarded dynamic part q/(b·L) *)
  for b = 1 to 6 do
    for l = b to 10 do
      for r = 0 to l - 1 do
        for q = 0 to b - 1 do
          let full = S.delta ~quota:b ~list_len:l ~rank:r ~position:q in
          let s = S.static_delta ~quota:b ~list_len:l ~rank:r in
          let d = float_of_int q /. (float_of_int b *. float_of_int l) in
          feq "decomposition" full (s +. d)
        done
      done
    done
  done

let test_delta_errors () =
  Alcotest.check_raises "rank range" (Invalid_argument "Satisfaction.delta: rank out of range")
    (fun () -> ignore (S.delta ~quota:2 ~list_len:3 ~rank:3 ~position:0));
  Alcotest.check_raises "position range"
    (Invalid_argument "Satisfaction.delta: position out of range") (fun () ->
      ignore (S.delta ~quota:2 ~list_len:3 ~rank:1 ~position:2))

let test_static_monotone_in_rank () =
  for r = 0 to 8 do
    let better = S.static_delta ~quota:3 ~list_len:10 ~rank:r in
    let worse = S.static_delta ~quota:3 ~list_len:10 ~rank:(r + 1) in
    Alcotest.(check bool) "lower rank gains more" true (better > worse)
  done

let ranks_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun quota ->
    int_range quota 20 >>= fun list_len ->
    int_range 0 quota >>= fun c ->
    (* c distinct ranks in [0, list_len) *)
    let rec draw acc =
      if List.length acc = c then return (quota, list_len, acc)
      else
        int_range 0 (list_len - 1) >>= fun r ->
        if List.mem r acc then draw acc else draw (r :: acc)
    in
    draw [])

let prop_satisfaction_in_unit_interval =
  QCheck2.Test.make ~name:"satisfaction in [0,1]" ~count:500 ranks_gen
    (fun (quota, list_len, ranks) ->
      let s = S.of_ranks ~quota ~list_len ranks in
      s >= -1e-12 && s <= 1.0 +. 1e-12)

let prop_closed_form_equals_delta_sum =
  QCheck2.Test.make ~name:"eq.1 equals sum of eq.4 increments" ~count:500 ranks_gen
    (fun (quota, list_len, ranks) ->
      let closed = S.of_ranks ~quota ~list_len ranks in
      let sorted = List.sort compare ranks in
      let sum =
        List.fold_left
          (fun (q, acc) r -> (q + 1, acc +. S.delta ~quota ~list_len ~rank:r ~position:q))
          (0, 0.0) sorted
        |> snd
      in
      Float.abs (closed -. sum) < 1e-9)

let prop_static_le_full =
  QCheck2.Test.make ~name:"static satisfaction <= full satisfaction" ~count:500 ranks_gen
    (fun (quota, list_len, ranks) ->
      S.static_of_ranks ~quota ~list_len ranks
      <= S.of_ranks ~quota ~list_len ranks +. 1e-12)

let prop_lemma1_pointwise =
  QCheck2.Test.make ~name:"static/full ratio >= 1/2(1+1/b) pointwise" ~count:500 ranks_gen
    (fun (quota, list_len, ranks) ->
      let full = S.of_ranks ~quota ~list_len ranks in
      if full <= 1e-12 then true
      else begin
        let st = S.static_of_ranks ~quota ~list_len ranks in
        let bound = 0.5 *. (1.0 +. (1.0 /. float_of_int quota)) in
        st /. full >= bound -. 1e-9
      end)

let prop_adding_connection_never_decreases =
  QCheck2.Test.make ~name:"adding a connection increases satisfaction" ~count:300
    ranks_gen (fun (quota, list_len, ranks) ->
      if List.length ranks >= quota then true
      else
        match
          List.filter (fun r -> not (List.mem r ranks)) (List.init list_len Fun.id)
        with
        | [] -> true
        | extra :: _ ->
            S.of_ranks ~quota ~list_len (extra :: ranks)
            > S.of_ranks ~quota ~list_len ranks -. 1e-12)

let suite =
  [
    Alcotest.test_case "figure 1" `Quick test_figure1;
    Alcotest.test_case "perfect" `Quick test_perfect;
    Alcotest.test_case "empty connections" `Quick test_empty_connections;
    Alcotest.test_case "single worst" `Quick test_single_worst;
    Alcotest.test_case "order irrelevant" `Quick test_order_irrelevant;
    Alcotest.test_case "of_ranks errors" `Quick test_of_ranks_errors;
    Alcotest.test_case "delta decomposition" `Quick test_delta_matches_parts;
    Alcotest.test_case "delta errors" `Quick test_delta_errors;
    Alcotest.test_case "static monotone in rank" `Quick test_static_monotone_in_rank;
    QCheck_alcotest.to_alcotest prop_satisfaction_in_unit_interval;
    QCheck_alcotest.to_alcotest prop_closed_form_equals_delta_sum;
    QCheck_alcotest.to_alcotest prop_static_le_full;
    QCheck_alcotest.to_alcotest prop_lemma1_pointwise;
    QCheck_alcotest.to_alcotest prop_adding_connection_never_decreases;
  ]
