(* Unit tests of the benchmark's helpers on fixed inputs, and of the
   output checks: a wrong anchor must count as a failed operation. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* expected values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let cases =
    [
      ([ 1.0; 2.0; 3.0; 4.0; 10.0 ], (1.5, 3.0, 7.0));
      ([ 5.0; 1.0; 3.0; 2.0 ], (1.25, 2.5, 4.5));
      ([ 2.5; 7.0 ], (1.375, 4.75, 8.125));
      ( [ 6.3; 6.85; 6.1; 7.2; 6.4; 6.9; 6.0; 6.55; 6.7; 6.2 ],
        (6.175000000000001, 6.475, 6.862499999999999) );
      ([ 4.0 ], (4.0, 4.0, 4.0));
    ]
  in
  List.iteri
    (fun i (xs, (e1, e2, e3)) ->
      let q1, q2, q3 = Quartiles.quartiles xs in
      check (Printf.sprintf "quartiles case %d" i) (close q1 e1 && close q2 e2 && close q3 e3);
      check (Printf.sprintf "median case %d" i) (close (Quartiles.median xs) e2))
    cases;
  check "relative iqr" (close (Quartiles.relative_iqr [ 1.0; 2.0; 3.0; 4.0; 10.0 ]) (5.5 /. 3.0))

let span ?(op = 1) id parent lo hi =
  {
    Spans.op;
    id;
    parent;
    name = Printf.sprintf "s%d" id;
    start_ms = lo;
    end_ms = hi;
    minor_words = 0.0;
    major_words = 0.0;
  }

let test_self_time () =
  let root = span 1 0 0.0 10.0 in
  let spans =
    [
      root;
      span 2 1 1.0 3.0;
      span 3 1 2.0 5.0 (* overlaps its sibling: covered once *);
      span 4 1 7.0 8.0;
      span 5 2 1.5 2.5 (* a grandchild: already inside span 2 *);
      span ~op:2 6 1 0.0 10.0 (* another op's span cannot be a child *);
    ]
  in
  check "self time of the root" (close (Spans.self_ms spans root) 5.0);
  check "self time of a leaf" (close (Spans.self_ms spans (span 4 1 7.0 8.0)) 1.0);
  check "self time with a grandchild" (close (Spans.self_ms spans (span 2 1 1.0 3.0)) 1.0);
  let table = Spans.self_table spans in
  check "self table totals" (close (List.fold_left (fun a r -> a +. r.Spans.self_total_ms) 0.0 table) 21.0);
  check "self table order" ((List.hd table).Spans.layer = "s6");
  let sp = Spans.create () in
  let x = Spans.record sp "outer" (fun () -> Spans.record sp "inner" (fun () -> 42)) in
  match Spans.spans sp with
  | [ inner; outer ] ->
      check "recorded nesting"
        (x = 42 && inner.Spans.parent = outer.Spans.id && inner.Spans.op = outer.Spans.op
       && outer.Spans.parent = 0)
  | _ -> check "recorded spans" false

let test_compare () =
  let lower bound = { Compare.better_lower = true; bound = Some bound } in
  let pairs f = List.init 10 (fun i -> (10.0 +. (0.01 *. float_of_int i), f i)) in
  let verdict spec ps = snd (Compare.judge spec ps) in
  check "clear gain" (verdict (lower 0.1) (pairs (fun i -> 8.0 +. (0.01 *. float_of_int i))) = Some Compare.Gain);
  check "regression" (verdict (lower 0.1) (pairs (fun _ -> 12.0)) = Some Compare.Regression);
  check "within bound" (verdict (lower 0.1) (pairs (fun i -> 10.02 +. (0.01 *. float_of_int (9 - i)))) = Some Compare.Within_bound);
  let noisy = List.init 10 (fun i -> ((if i mod 2 = 0 then 5.0 else 15.0), 10.0)) in
  check "unresolved" (verdict (lower 0.1) noisy = Some Compare.Unresolved);
  check "no bound, no verdict" (verdict { Compare.better_lower = false; bound = None } noisy = None)

let test_json () =
  let j =
    Bjson.Obj
      [
        ("a", Bjson.Num 6.300000000000001);
        ("b", Bjson.Arr [ Bjson.Bool true; Bjson.Null; Bjson.Str "x\"y\n" ]);
        ("c", Bjson.Num 42.0);
      ]
  in
  let back = Bjson.of_string (Bjson.to_string j) in
  check "json round trip" (String.equal (Bjson.to_string back) (Bjson.to_string j));
  check "json float digits"
    (match Option.bind (Bjson.member "a" back) Bjson.to_num with
    | Some f -> Float.equal f 6.300000000000001
    | None -> false);
  check "json rejects garbage"
    (match Bjson.of_string "{\"a\": }" with _ -> false | exception Bjson.Parse_error _ -> true)

(* The build workload on the E23b instance (n = 10^4, seed 23) must
   replay BENCH_E23.json's anchors, and a deliberately wrong anchor for
   it must fail every call. *)
let test_anchors () =
  let w = Option.get (Suite.find "build-2k") in
  let e23 = { w with Suite.quick = { Suite.n = 10_000; arrivals = None } } in
  let r = Suite.untraced ~quick:true ~seconds:0.0 e23 ~seed:23 in
  check "the E23b instance replays its anchors" (r.Suite.attempted >= 1 && r.Suite.failed = 0);
  let wrong =
    { Suite.a_n = 10_000; a_seed = 23; prop = 92419; rej = 51428; delivered = 143846; vtime = 11.590479 }
  in
  let r = Suite.untraced ~anchors:[ wrong ] ~quick:true ~seconds:0.0 e23 ~seed:23 in
  check "wrong anchor counts as a failed operation"
    (r.Suite.attempted >= 1 && r.Suite.failed = r.Suite.attempted)

let () =
  test_quartiles ();
  test_self_time ();
  test_compare ();
  test_json ();
  test_anchors ();
  if !failures > 0 then begin
    Printf.printf "%d benchmark helper test(s) failed\n" !failures;
    exit 1
  end
