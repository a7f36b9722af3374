(* The calendar queue against the reference binary heap: whatever mix
   of timestamps is thrown at it — same-timestamp runs, sub-bucket
   jitter, far-future outliers, adds interleaved with pops — the wheel
   must reproduce the heap's (at, seq) pop order exactly, because
   Simnet's bit-identical determinism rests on that order. *)

module Wheel = Owp_util.Event_wheel

module Ref_heap = Owp_util.Heap.Make (struct
  type t = float * int * int

  let compare (a1, s1, _) (a2, s2, _) =
    let c = Float.compare a1 a2 in
    if c <> 0 then c else compare s1 s2
end)

(* drive the same script through both queues; return both pop logs.
   Script entries: [Add at] (seq assigned in script order) or [Pop]. *)
type op = Add of float | Pop

(* one pop through the allocation-free protocol, read back as a tuple *)
let wheel_pop w =
  if Wheel.pop_into w then Some (Wheel.last_at w, Wheel.last_seq w, Wheel.last_pay w)
  else None

let run_script ?width ?buckets ?capacity ops =
  let wheel = Wheel.create ?width ?buckets ?capacity () in
  let heap = Ref_heap.create () in
  let seq = ref 0 in
  let wl = ref [] and hl = ref [] in
  List.iter
    (fun op ->
      match op with
      | Add at ->
          Wheel.add wheel ~at ~seq:!seq !seq;
          Ref_heap.add heap (at, !seq, !seq);
          incr seq
      | Pop ->
          (match wheel_pop wheel with
          | Some (at, sq, pay) -> wl := (at, sq, pay) :: !wl
          | None -> ());
          (match Ref_heap.pop_min_opt heap with
          | Some e -> hl := e :: !hl
          | None -> ()))
    ops;
  (* drain both *)
  let rec drain () =
    match (wheel_pop wheel, Ref_heap.pop_min_opt heap) with
    | Some w, Some h ->
        wl := w :: !wl;
        hl := h :: !hl;
        drain ()
    | None, None -> ()
    | Some w, None ->
        wl := w :: !wl;
        drain ()
    | None, Some h ->
        hl := h :: !hl;
        drain ()
  in
  drain ();
  Alcotest.(check int) "wheel drained" 0 (Wheel.size wheel);
  (List.rev !wl, List.rev !hl)

let check_script ?width ?buckets ops =
  let wl, hl = run_script ?width ?buckets ops in
  Alcotest.(check int) "same length" (List.length hl) (List.length wl);
  List.iter2
    (fun (wa, ws, wp) (ha, hs, hp) ->
      if not (Float.equal wa ha && ws = hs && wp = hp) then
        Alcotest.failf "order diverged: wheel (%g,%d,%d) vs heap (%g,%d,%d)" wa ws
          wp ha hs hp)
    wl hl

(* ------------------------------------------------------------------ *)
(* pinned scenarios                                                     *)
(* ------------------------------------------------------------------ *)

let test_batch_then_drain () =
  check_script
    [ Add 3.0; Add 1.0; Add 2.0; Add 1.0; Add 0.5; Add 2.5; Add 1.0 ]

let test_same_timestamp_run () =
  (* seq is the only tie-break: a run of identical timestamps must come
     back in insertion order *)
  check_script (List.init 50 (fun _ -> Add 1.0))

let test_far_future_outliers () =
  check_script
    [
      Add 1.0; Add 1e12; Add 2.0; Pop; Add 1e9; Add 0.5; Pop; Pop; Add 3.0;
      Add 1e12; Pop;
    ]

let test_insert_into_open_window () =
  (* popping at 0.5 opens the epoch-0 window; 0.55 then lands inside it
     (the FIFO-clamp pattern) and must still interleave exactly *)
  check_script ~width:1.0 [ Add 0.5; Add 0.6; Pop; Add 0.55; Add 0.7 ]

let test_past_insert_after_advance () =
  (* an add below the draining epoch (possible under unsafe clocks or
     arbitrary test scripts) must still come back first *)
  check_script ~width:0.5 [ Add 5.0; Pop; Add 1.0; Add 6.0 ]

let test_reuse_after_drain () =
  check_script ~width:0.25
    [ Add 1.0; Pop; Pop; Add 2.0; Add 0.125; Pop; Pop; Add 9.0 ]

let test_empty () =
  let w = Wheel.create () in
  Alcotest.(check int) "empty size" 0 (Wheel.size w);
  Alcotest.(check bool) "no pop" false (Wheel.pop_into w);
  Alcotest.(check bool) "no pop within any horizon" false (Wheel.pop_until w infinity)

let test_rejections () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Event_wheel.create: width must be positive") (fun () ->
      ignore (Wheel.create ~width:0.0 ()));
  Alcotest.check_raises "one bucket"
    (Invalid_argument "Event_wheel.create: need at least 2 buckets") (fun () ->
      ignore (Wheel.create ~buckets:1 ()));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Event_wheel.create: negative capacity") (fun () ->
      ignore (Wheel.create ~capacity:(-1) ()));
  let w = Wheel.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_wheel.add: time must be finite and non-negative")
    (fun () -> Wheel.add w ~at:(-1.0) ~seq:0 0)

let test_footprint_bounded () =
  (* waves of traffic through one wheel: the backing store must track
     the live population, not the total events ever enqueued *)
  let w = Wheel.create ~width:0.5 () in
  let seq = ref 0 in
  let wave base =
    for i = 0 to 999 do
      Wheel.add w ~at:(base +. (0.01 *. float_of_int i)) ~seq:!seq !seq;
      incr seq
    done;
    for _ = 1 to 1000 do
      ignore (Wheel.pop_into w)
    done
  in
  (* warm-up waves let the wheel settle its bucket count and per-bucket
     capacities; after that the footprint must stop growing entirely,
     even though every wave lands in fresh epochs (fresh residues) *)
  for k = 0 to 24 do
    wave (float_of_int k *. 100.0)
  done;
  let warm = Wheel.footprint_words w in
  for k = 25 to 50 do
    wave (float_of_int k *. 100.0)
  done;
  let after_many = Wheel.footprint_words w in
  Alcotest.(check bool)
    (Printf.sprintf "footprint stable under churn (%d -> %d words)" warm
       after_many)
    true
    (after_many <= warm)

let test_capacity_presizes_pool () =
  (* a burst of k bucketed events into a wheel presized for k: the slot
     pool is in place before the first add and never grows during the
     burst; one event more and the pool doubles as without the hint *)
  let k = 1000 in
  let w = Wheel.create ~capacity:k () in
  let add i = Wheel.add w ~at:(0.5 +. (0.001 *. float_of_int i)) ~seq:i i in
  add 0;
  let first = Wheel.footprint_words w in
  for i = 1 to k - 1 do
    add i
  done;
  Alcotest.(check int) "no growth during the burst" first (Wheel.footprint_words w);
  add k;
  Alcotest.(check bool) "grows past the capacity" true (Wheel.footprint_words w > first)

(* ------------------------------------------------------------------ *)
(* width retuning: the wheel rescales its own buckets both ways         *)
(* ------------------------------------------------------------------ *)

module Prng = Owp_util.Prng

(* a wheel and the reference heap driven in lockstep; [pop] counts the
   pops on which the two disagreed *)
type lockstep = {
  wheel : Wheel.t;
  heap : Ref_heap.t;
  mutable next_seq : int;
  mutable diverged : int;
  mutable live_peak : int;
  mutable last : float;
}

let lockstep () =
  {
    wheel = Wheel.create ();
    heap = Ref_heap.create ();
    next_seq = 0;
    diverged = 0;
    live_peak = 0;
    last = 0.0;
  }

let ls_add l at =
  Wheel.add l.wheel ~at ~seq:l.next_seq l.next_seq;
  Ref_heap.add l.heap (at, l.next_seq, l.next_seq);
  l.next_seq <- l.next_seq + 1;
  l.live_peak <- max l.live_peak (Wheel.size l.wheel)

(* one pop from each; [false] once both are empty *)
let ls_pop l =
  match (wheel_pop l.wheel, Ref_heap.pop_min_opt l.heap) with
  | None, None -> false
  | Some (wa, ws, wp), Some (ha, hs, hp) ->
      if not (Float.equal wa ha && ws = hs && wp = hp) then l.diverged <- l.diverged + 1;
      l.last <- wa;
      true
  | _ -> Alcotest.fail "wheel and heap disagree on emptiness"

(* drain both, calling [on_retune] right after every pop that opened a
   window at a new width; returns the smallest and largest widths seen *)
let ls_drain ?(on_retune = fun _ -> ()) l =
  let lo = ref (Wheel.width l.wheel) and hi = ref (Wheel.width l.wheel) in
  let w = ref (Wheel.width l.wheel) in
  while ls_pop l do
    let w' = Wheel.width l.wheel in
    if not (Float.equal w' !w) then begin
      w := w';
      lo := Float.min !lo w';
      hi := Float.max !hi w';
      on_retune l
    end
  done;
  (!lo, !hi)

let check_agreed l = Alcotest.(check int) "pops diverging from the heap" 0 l.diverged

let test_retune_burst_then_sparse () =
  let l = lockstep () in
  let g = Prng.create 15 in
  let w0 = Wheel.width l.wheel in
  (* 20 k events inside one time unit, then a sparse tail spread over
     [10, 10^6) *)
  for _ = 1 to 20_000 do
    ls_add l (1.0 +. Prng.float g 1.0)
  done;
  for i = 1 to 2_000 do
    ls_add l (10.0 +. (500.0 *. float_of_int i) +. Prng.float g 400.0)
  done;
  let narrowest = ref w0 in
  let lo, hi =
    ls_drain l ~on_retune:(fun l ->
        if l.last < 2.0 then narrowest := Float.min !narrowest (Wheel.width l.wheel))
  in
  check_agreed l;
  Alcotest.(check bool) "the burst narrowed the width" true (!narrowest < w0 /. 100.0);
  Alcotest.(check bool)
    "the sparse tail widened it again" true
    (hi > !narrowest *. 100.0);
  Alcotest.(check bool) "widths seen span both directions" true (lo < w0 && hi > lo);
  let fp = Wheel.footprint_words l.wheel in
  Alcotest.(check bool)
    (Printf.sprintf "drained footprint %d words within 16 x live peak %d" fp l.live_peak)
    true
    (fp <= 16 * l.live_peak)

let test_retune_far_future_timers () =
  (* re-armed timers 10^6 apart: everything starts beyond the horizon,
     and the width must grow towards the timers' spacing *)
  let l = lockstep () in
  let g = Prng.create 16 in
  let w0 = Wheel.width l.wheel in
  for i = 0 to 999 do
    ls_add l ((1e6 *. float_of_int i) +. Prng.float g 1e3)
  done;
  let rearmed = ref 0 in
  let widest = ref w0 in
  while ls_pop l do
    widest := Float.max !widest (Wheel.width l.wheel);
    if !rearmed < 3_000 then begin
      incr rearmed;
      ls_add l (l.last +. 1e6 +. Prng.float g 1e3)
    end
  done;
  check_agreed l;
  Alcotest.(check bool)
    (Printf.sprintf "width grew (%g -> %g)" w0 !widest)
    true
    (!widest > w0 *. 1e3)

let test_retune_aux_inserts () =
  (* a burst whose retunes are each followed by inserts into the window
     that just opened: one at the popped timestamp itself (an equal key
     with a larger seq) and one a hair later, both into the aux heap *)
  let l = lockstep () in
  let g = Prng.create 17 in
  for _ = 1 to 25_000 do
    ls_add l (Prng.float g 1.0)
  done;
  let retunes = ref 0 in
  ignore
    (ls_drain l ~on_retune:(fun l ->
         incr retunes;
         ls_add l l.last;
         ls_add l (l.last +. 1e-9)));
  Alcotest.(check bool) "at least one retune" true (!retunes >= 1);
  check_agreed l

let test_retune_equal_timestamps_straddle () =
  (* 1000 events at exactly t = 3 are stored before the first retune
     and 1000 more after it: all 2000 must come back in seq order *)
  let l = lockstep () in
  let g = Prng.create 18 in
  for _ = 1 to 20_000 do
    ls_add l (1.0 +. Prng.float g 1.0)
  done;
  for _ = 1 to 1_000 do
    ls_add l 3.0
  done;
  let straddled = ref false in
  ignore
    (ls_drain l ~on_retune:(fun l ->
         if not !straddled then begin
           straddled := true;
           for _ = 1 to 1_000 do
             ls_add l 3.0
           done
         end));
  Alcotest.(check bool) "a retune happened" true !straddled;
  check_agreed l

(* ------------------------------------------------------------------ *)
(* the QCheck property: random scripts, three timestamp regimes         *)
(* ------------------------------------------------------------------ *)

let gen_at =
  let open QCheck2.Gen in
  frequency
    [
      (* clustered: many equal timestamps, exercises seq tie-breaks *)
      (4, int_range 0 40 >|= fun k -> float_of_int k /. 8.0);
      (* smooth: generic positions inside and across buckets *)
      (4, float_bound_exclusive 50.0);
      (* far-future outliers straight into the overflow heap *)
      (1, float_bound_exclusive 5.0 >|= fun f -> (f +. 1.0) *. 1e10);
    ]

let gen_script =
  let open QCheck2.Gen in
  let gen_op = frequency [ (3, gen_at >|= fun at -> Add at); (2, pure Pop) ] in
  list_size (int_range 1 400) gen_op

let print_script ops =
  String.concat "; "
    (List.map
       (function Add at -> Printf.sprintf "Add %h" at | Pop -> "Pop")
       ops)

let prop_order_equivalence =
  QCheck2.Test.make ~count:300 ~print:print_script
    ~name:"wheel pops in the reference heap's exact (at, seq) order" gen_script
    (fun ops ->
      (* a presized slot pool, outgrown or not, moves no event *)
      List.for_all
        (fun capacity ->
          let wl, hl = run_script ~width:0.5 ~buckets:4 ~capacity ops in
          wl = hl)
        [ 0; 1; 1000 ])

let prop_order_equivalence_wide =
  QCheck2.Test.make ~count:200 ~print:print_script
    ~name:"order equivalence across bucket widths" gen_script (fun ops ->
      List.for_all
        (fun width ->
          let wl, hl = run_script ~width ops in
          wl = hl)
        [ 0.03125; 1.0; 64.0 ])

(* the horizon rule Simnet.run_until relies on: [pop_until w h] takes
   the reference heap's head exactly when its time is [<= h] and
   otherwise refuses, leaving every event queued.  Horizons come from
   the timestamp generator, so ties with the head are common. *)
type bounded = Badd of float | Bpop of float

let prop_pop_until_horizon =
  QCheck2.Test.make ~count:300
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Badd at -> Printf.sprintf "Add %h" at | Bpop h -> Printf.sprintf "Pop_until %h" h)
           ops))
    ~name:"pop_until refuses exactly when the heap's head is past the horizon"
    QCheck2.Gen.(
      list_size (int_range 1 400)
        (frequency [ (3, gen_at >|= fun at -> Badd at); (2, gen_at >|= fun h -> Bpop h) ]))
    (fun ops ->
      let w = Wheel.create ~width:0.5 ~buckets:4 () in
      let heap = Ref_heap.create () in
      let seq = ref 0 in
      let ok = ref true in
      let pop_until h =
        let took = Wheel.pop_until w h in
        (match Ref_heap.peek_min_opt heap with
        | Some ((at, _, _) as head) when at <= h ->
            ignore (Ref_heap.pop_min heap);
            if not (took && (Wheel.last_at w, Wheel.last_seq w, Wheel.last_pay w) = head)
            then ok := false
        | _ -> if took then ok := false);
        if Wheel.size w <> Ref_heap.length heap then ok := false;
        took
      in
      List.iter
        (function
          | Badd at ->
              Wheel.add w ~at ~seq:!seq !seq;
              Ref_heap.add heap (at, !seq, !seq);
              incr seq
          | Bpop h -> ignore (pop_until h))
        ops;
      while pop_until infinity do
        ()
      done;
      !ok && Wheel.size w = 0)

let suite =
  [
    Alcotest.test_case "batch then drain" `Quick test_batch_then_drain;
    Alcotest.test_case "same-timestamp run" `Quick test_same_timestamp_run;
    Alcotest.test_case "far-future outliers" `Quick test_far_future_outliers;
    Alcotest.test_case "insert into the open window" `Quick
      test_insert_into_open_window;
    Alcotest.test_case "past insert after advance" `Quick
      test_past_insert_after_advance;
    Alcotest.test_case "reuse after drain" `Quick test_reuse_after_drain;
    Alcotest.test_case "empty wheel" `Quick test_empty;
    Alcotest.test_case "rejections" `Quick test_rejections;
    Alcotest.test_case "footprint bounded under churn" `Quick
      test_footprint_bounded;
    Alcotest.test_case "capacity presizes the slot pool" `Quick
      test_capacity_presizes_pool;
    Alcotest.test_case "retune: dense burst, then sparse tail" `Quick
      test_retune_burst_then_sparse;
    Alcotest.test_case "retune: far-future timers" `Quick
      test_retune_far_future_timers;
    Alcotest.test_case "retune: aux inserts after a retune" `Quick
      test_retune_aux_inserts;
    Alcotest.test_case "retune: equal timestamps straddle a retune" `Quick
      test_retune_equal_timestamps_straddle;
    QCheck_alcotest.to_alcotest prop_order_equivalence;
    QCheck_alcotest.to_alcotest prop_order_equivalence_wide;
    QCheck_alcotest.to_alcotest prop_pop_until_horizon;
  ]
