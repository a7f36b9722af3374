(* The fault-schedule spec language and episode semantics.

   The schedule is the input language of the chaos tooling, so the
   parser/printer pair gets the same treatment as the faults spec: a
   QCheck round-trip property over random schedules (to_string must
   re-parse to an equal record), line-item parse examples for each
   episode kind, validation rejections, and direct checks of the
   time-indexed semantics (active/outage/end_time/down_spans).  The
   faults spec round-trip property rides here too — both specs travel
   together on the CLI. *)

module Schedule = Owp_simnet.Schedule
module Faults = Owp_simnet.Faults
module Prng = Owp_util.Prng

let ep from_ until what = { Schedule.from_; until; what }

(* ------------------------------------------------------------------ *)
(* parse examples                                                      *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" s e

let test_parse_examples () =
  (match parse "part:0.1|2.3@2-6" with
  | [ { Schedule.from_; until; what = Schedule.Partition [ [ 0; 1 ]; [ 2; 3 ] ] } ] ->
      Alcotest.(check (float 1e-9)) "from" 2.0 from_;
      Alcotest.(check (float 1e-9)) "until" 6.0 until
  | _ -> Alcotest.fail "part:0.1|2.3@2-6 shape");
  (match parse "link:0.1@2-5" with
  | [ { Schedule.what = Schedule.Link_down [ (0, 1) ]; _ } ] -> ()
  | _ -> Alcotest.fail "link:0.1@2-5 shape");
  (match parse "flap:0.1:1.5:0.5@2-8" with
  | [ { Schedule.what = Schedule.Flap { links = [ (0, 1) ]; period; duty }; _ } ] ->
      Alcotest.(check (float 1e-9)) "period" 1.5 period;
      Alcotest.(check (float 1e-9)) "duty" 0.5 duty
  | _ -> Alcotest.fail "flap shape");
  (match parse "burst:0.9@3-4" with
  | [ { Schedule.what = Schedule.Burst p; _ } ] ->
      Alcotest.(check (float 1e-9)) "p" 0.9 p
  | _ -> Alcotest.fail "burst shape");
  (match parse "down:2.5@1-6" with
  | [ { Schedule.what = Schedule.Down [ 2; 5 ]; _ } ] -> ()
  | _ -> Alcotest.fail "down shape");
  Alcotest.(check int) "episodes compose with ;" 2
    (List.length (parse "part:0.1@2-6;burst:0.5@7-8"));
  Alcotest.(check bool) "none is empty" true (Schedule.is_empty (parse "none"));
  Alcotest.(check bool) "blank is empty" true (Schedule.is_empty (parse "  "))

let test_parse_rejections () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Result.is_error (Schedule.of_string s)))
    [
      "part:0.1";                (* no interval *)
      "part:0.1@6-2";            (* backwards interval *)
      "burst:1.5@1-2";           (* p out of range *)
      "flap:0.1:0:0.5@1-2";      (* non-positive period *)
      "flap:0.1:1:1.5@1-2";      (* duty out of range *)
      "link:0.0@1-2";            (* self-link *)
      "frobnicate:1@1-2";        (* unknown kind *)
      "down:3@1-5;down:3@4-8";   (* overlapping down spans for one node *)
      "part:@1-2";               (* empty group *)
    ]

(* ------------------------------------------------------------------ *)
(* round-trip property                                                 *)
(* ------------------------------------------------------------------ *)

(* the spec prints floats with %.12g for human-readable --schedule
   lines, so a round-trip property must draw floats that survive that:
   64ths are exact binary fractions with short decimal forms *)
let grid lo hi =
  QCheck2.Gen.(int_range lo hi >|= fun k -> float_of_int k /. 64.0)

(* a random valid schedule, drawn directly (not via Chaos.generate, so
   the test does not depend on the generator under test elsewhere) *)
let gen_schedule =
  let open QCheck2.Gen in
  let node = int_range 0 9 in
  let interval =
    pair (grid 0 640) (grid 1 320) >|= fun (t0, d) -> (t0, t0 +. d)
  in
  let link =
    pair node node >|= fun (u, v) -> if u = v then (u, (v + 1) mod 10) else (u, v)
  in
  let links = list_size (int_range 1 3) link >|= List.sort_uniq compare in
  let kind =
    oneof
      [
        (list_size (int_range 1 3) (list_size (int_range 1 3) node)
        >|= fun groups ->
         (* distinct nodes across groups, none empty *)
         let seen = Hashtbl.create 8 in
         let groups =
           List.filter_map
             (fun g ->
               match
                 List.filter
                   (fun v ->
                     if Hashtbl.mem seen v then false
                     else begin
                       Hashtbl.add seen v ();
                       true
                     end)
                   (List.sort_uniq compare g)
               with
               | [] -> None
               | g -> Some g)
             groups
         in
         if groups = [] then Schedule.Burst 0.5 else Schedule.Partition groups);
        (links >|= fun ls -> Schedule.Link_down ls);
        ( pair links (pair (grid 7 256) (grid 4 60))
        >|= fun (ls, (period, duty)) -> Schedule.Flap { links = ls; period; duty } );
        (grid 1 64 >|= fun p -> Schedule.Burst p);
        (node >|= fun v -> Schedule.Down [ v ]);
      ]
  in
  let episode = pair interval kind >|= fun ((f, u), w) -> ep f u w in
  list_size (int_range 1 4) episode >|= fun eps ->
  (* keep Down victims disjoint so the schedule validates *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun e ->
      match e.Schedule.what with
      | Schedule.Down [ v ] ->
          if Hashtbl.mem seen v then false
          else begin
            Hashtbl.add seen v ();
            true
          end
      | _ -> true)
    eps

let prop_schedule_round_trip =
  QCheck2.Test.make ~name:"to_string re-parses to an equal schedule" ~count:300
    gen_schedule (fun sched ->
      match Schedule.validate sched with
      | Error _ -> QCheck2.assume_fail ()
      | Ok sched -> (
          match Schedule.of_string (Schedule.to_string sched) with
          | Ok sched' -> sched = sched'
          | Error e -> QCheck2.Test.fail_reportf "re-parse failed: %s" e))

(* the faults spec gets the same property; dup= and duplicate= are
   alternative spellings of the same field *)
let gen_faults =
  let open QCheck2.Gen in
  let prob = grid 0 57 in
  map2
    (fun ((drop, duplicate), (reorder, crash)) (fifo, patience) ->
      Faults.make ~drop ~duplicate ~reorder ~crash ~fifo ?patience ())
    (pair (pair prob prob) (pair prob (grid 0 32)))
    (pair bool (option (grid 7 6400)))

let prop_faults_round_trip =
  QCheck2.Test.make ~name:"faults to_string re-parses to an equal record" ~count:300
    gen_faults (fun f ->
      match Faults.of_string (Faults.to_string f) with
      | Ok f' -> Faults.equal f f'
      | Error e -> QCheck2.Test.fail_reportf "re-parse failed: %s" e)

let test_faults_dup_spellings () =
  match (Faults.of_string "dup=0.25", Faults.of_string "duplicate=0.25") with
  | Ok a, Ok b ->
      Alcotest.(check bool) "dup= and duplicate= agree" true (Faults.equal a b);
      Alcotest.(check (float 1e-9)) "value" 0.25 a.Faults.duplicate
  | _ -> Alcotest.fail "both spellings must parse"

let test_default_crash_patience () =
  Alcotest.(check bool) "crash arms the 60 s default" true
    (Faults.effective_patience (Faults.make ~crash:0.1 ()) = Some 60.0)

(* ------------------------------------------------------------------ *)
(* semantics                                                           *)
(* ------------------------------------------------------------------ *)

let test_end_time () =
  let sched = parse "part:0.1@2-6;burst:0.5@7-8" in
  Alcotest.(check (float 1e-9)) "t_heal is the last until" 8.0
    (Schedule.end_time sched);
  Alcotest.(check (float 1e-9)) "empty heals at 0" 0.0 (Schedule.end_time [])

let test_partition_outage () =
  let sched = parse "part:0.1@2-6" in
  (* 0 and 1 share a block: no cut; 2 is in the implicit rest-block *)
  Alcotest.(check (float 1e-9)) "same block" 0.0
    (Schedule.outage sched ~at:3.0 ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "across blocks" 1.0
    (Schedule.outage sched ~at:3.0 ~src:0 ~dst:2);
  Alcotest.(check (float 1e-9)) "rest-block internal" 0.0
    (Schedule.outage sched ~at:3.0 ~src:2 ~dst:3);
  Alcotest.(check (float 1e-9)) "healed" 0.0
    (Schedule.outage sched ~at:6.0 ~src:0 ~dst:2)

let test_link_and_burst_outage () =
  let sched = parse "link:0.1@2-5;burst:0.7@3-4" in
  Alcotest.(check (float 1e-9)) "down link cut both ways" 1.0
    (Schedule.outage sched ~at:2.5 ~src:1 ~dst:0);
  Alcotest.(check (float 1e-9)) "other links clean" 0.0
    (Schedule.outage sched ~at:2.5 ~src:0 ~dst:2);
  Alcotest.(check (float 1e-9)) "burst is global" 0.7
    (Schedule.outage sched ~at:3.5 ~src:4 ~dst:5);
  Alcotest.(check (float 1e-9)) "cut dominates burst" 1.0
    (Schedule.outage sched ~at:3.5 ~src:0 ~dst:1)

let test_flap_outage () =
  let sched = parse "flap:0.1:2:0.5@2-10" in
  (* period 2, duty 0.5: down on [2,3), up on [3,4), down on [4,5)... *)
  Alcotest.(check (float 1e-9)) "down phase" 1.0
    (Schedule.outage sched ~at:2.5 ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "up phase" 0.0
    (Schedule.outage sched ~at:3.5 ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "down again next period" 1.0
    (Schedule.outage sched ~at:4.5 ~src:0 ~dst:1)

let test_down_spans () =
  let sched = parse "down:2.5@1-6;part:0.1@2-3" in
  Alcotest.(check bool) "crash plans from down episodes" true
    (Schedule.down_spans sched = [ (2, 1.0, 6.0); (5, 1.0, 6.0) ]);
  Alcotest.(check bool) "partitions contribute none" true
    (Schedule.down_spans (parse "part:0.1@2-3") = [])

let test_validate_against_n () =
  let sched = parse "part:0.7@1-2" in
  Alcotest.(check bool) "node id in range" true
    (Result.is_ok (Schedule.validate ~n:8 sched));
  Alcotest.(check bool) "node id out of range" true
    (Result.is_error (Schedule.validate ~n:7 sched))

let suite =
  [
    Alcotest.test_case "parse examples" `Quick test_parse_examples;
    Alcotest.test_case "parse rejections" `Quick test_parse_rejections;
    QCheck_alcotest.to_alcotest prop_schedule_round_trip;
    QCheck_alcotest.to_alcotest prop_faults_round_trip;
    Alcotest.test_case "dup/duplicate spellings" `Quick test_faults_dup_spellings;
    Alcotest.test_case "default crash patience is named" `Quick
      test_default_crash_patience;
    Alcotest.test_case "end_time" `Quick test_end_time;
    Alcotest.test_case "partition outage" `Quick test_partition_outage;
    Alcotest.test_case "link + burst outage" `Quick test_link_and_burst_outage;
    Alcotest.test_case "flap duty cycle" `Quick test_flap_outage;
    Alcotest.test_case "down episodes as crash plans" `Quick test_down_spans;
    Alcotest.test_case "validate against n" `Quick test_validate_against_n;
  ]
