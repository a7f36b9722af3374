module Sim = Owp_simnet.Simnet

let test_single_delivery () =
  let net = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  let got = ref [] in
  Sim.set_handler net (fun ~src ~dst m -> got := (src, dst, m) :: !got);
  Sim.send net ~src:0 ~dst:1 "hello";
  Sim.run net;
  Alcotest.(check int) "one delivery" 1 (List.length !got);
  Alcotest.(check bool) "payload" true (List.hd !got = (0, 1, "hello"));
  Alcotest.(check (float 1e-9)) "unit delay" 1.0 (Sim.now net);
  Alcotest.(check int) "counter sent" 1 (Sim.messages_sent net);
  Alcotest.(check int) "counter delivered" 1 (Sim.messages_delivered net)

let test_handler_chaining () =
  (* ping-pong k times *)
  let net = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  let hops = ref 0 in
  Sim.set_handler net (fun ~src ~dst m ->
      incr hops;
      if m > 0 then Sim.send net ~src:dst ~dst:src (m - 1));
  Sim.send net ~src:0 ~dst:1 5;
  Sim.run net;
  Alcotest.(check int) "six deliveries" 6 !hops;
  Alcotest.(check (float 1e-9)) "time is hops" 6.0 (Sim.now net)

let test_fifo_ordering () =
  let net = Sim.create ~fifo:true ~nodes:2 ~delay:(Sim.Uniform (0.1, 10.0)) () in
  let got = ref [] in
  Sim.set_handler net (fun ~src:_ ~dst:_ m -> got := m :: !got);
  for i = 1 to 50 do
    Sim.send net ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> 50 - i)) !got

let test_no_fifo_can_reorder () =
  let net = Sim.create ~fifo:false ~seed:5 ~nodes:2 ~delay:(Sim.Uniform (0.1, 10.0)) () in
  let got = ref [] in
  Sim.set_handler net (fun ~src:_ ~dst:_ m -> got := m :: !got);
  for i = 1 to 50 do
    Sim.send net ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check bool) "some reordering" true (!got <> List.init 50 (fun i -> 50 - i))

let test_schedule () =
  let net : unit Sim.t = Sim.create ~nodes:1 ~delay:Sim.Unit () in
  let fired = ref [] in
  Sim.schedule net ~delay:3.0 (fun () -> fired := 3 :: !fired);
  Sim.schedule net ~delay:1.0 (fun () -> fired := 1 :: !fired);
  Sim.run net;
  Alcotest.(check (list int)) "ordered callbacks" [ 3; 1 ] !fired;
  Alcotest.(check (float 1e-9)) "clock at last" 3.0 (Sim.now net)

let test_run_until () =
  let net : unit Sim.t = Sim.create ~nodes:1 ~delay:Sim.Unit () in
  let fired = ref 0 in
  List.iter
    (fun d -> Sim.schedule net ~delay:d (fun () -> incr fired))
    [ 1.0; 2.0; 2.5; 5.0 ];
  Sim.run_until net 2.5;
  (* the horizon is inclusive: the event exactly at 2.5 fires *)
  Alcotest.(check int) "up to the horizon" 3 !fired;
  Alcotest.(check (float 0.0)) "clock at the horizon" 2.5 (Sim.now net);
  Alcotest.(check int) "later event still queued" 1 (Sim.pending_events net);
  Sim.run net;
  Alcotest.(check int) "rest delivered" 4 !fired;
  Alcotest.(check int) "nothing queued" 0 (Sim.pending_events net)

let test_drop_faults () =
  let faults = Sim.faults ~drop:1.0 () in
  let net = Sim.create ~faults ~nodes:2 ~delay:Sim.Unit () in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> Alcotest.fail "should have been dropped");
  for _ = 1 to 20 do
    Sim.send net ~src:0 ~dst:1 ()
  done;
  Sim.run net;
  Alcotest.(check int) "all dropped" 20 (Sim.messages_dropped net);
  Alcotest.(check int) "none delivered" 0 (Sim.messages_delivered net)

let test_duplicate_faults () =
  let faults = Sim.faults ~duplicate:1.0 () in
  let net = Sim.create ~faults ~nodes:2 ~delay:Sim.Unit () in
  let count = ref 0 in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> incr count);
  for _ = 1 to 10 do
    Sim.send net ~src:0 ~dst:1 ()
  done;
  Sim.run net;
  Alcotest.(check int) "each duplicated" 20 !count

let test_partial_drop_rate () =
  let faults = Sim.faults ~drop:0.5 () in
  let net = Sim.create ~seed:9 ~faults ~nodes:2 ~delay:Sim.Unit () in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> ());
  for _ = 1 to 2000 do
    Sim.send net ~src:0 ~dst:1 ()
  done;
  Sim.run net;
  let d = Sim.messages_dropped net in
  Alcotest.(check bool) "about half dropped" true (d > 900 && d < 1100)

let test_reorder_faults () =
  (* reorder straggles messages past the FIFO clamp even on fifo:true *)
  let faults = Sim.faults ~reorder:0.3 () in
  let net = Sim.create ~seed:11 ~fifo:true ~faults ~nodes:2 ~delay:(Sim.Uniform (0.5, 1.5)) () in
  let got = ref [] in
  Sim.set_handler net (fun ~src:_ ~dst:_ m -> got := m :: !got);
  for i = 1 to 100 do
    Sim.send net ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check int) "all delivered" 100 (List.length !got);
  Alcotest.(check bool) "some straggled" true (Sim.messages_reordered net > 0);
  Alcotest.(check bool) "order broken" true (!got <> List.init 100 (fun i -> 100 - i))

let test_crash_blackholes () =
  let net = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  let got = ref 0 in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> incr got);
  Sim.crash net 1;
  Alcotest.(check bool) "down" false (Sim.is_up net 1);
  Sim.send net ~src:0 ~dst:1 ();
  (* in flight towards a down host *)
  Sim.send net ~src:1 ~dst:0 ();
  (* send from a down host *)
  Sim.run net;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "both lost to the crash" 2 (Sim.messages_lost_to_crashes net);
  Alcotest.(check int) "one crash event" 1 (Sim.crash_events net)

let test_crash_restart () =
  let net = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  let got = ref 0 in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> incr got);
  Sim.schedule net ~delay:1.0 (fun () -> Sim.crash net 1);
  Sim.schedule net ~delay:5.0 (fun () -> Sim.restart net 1);
  (* arrives at t=2.5: lost *)
  Sim.schedule net ~delay:1.5 (fun () -> Sim.send net ~src:0 ~dst:1 ());
  (* arrives at t=7: delivered *)
  Sim.schedule net ~delay:6.0 (fun () -> Sim.send net ~src:0 ~dst:1 ());
  Sim.run net;
  Alcotest.(check bool) "back up" true (Sim.is_up net 1);
  Alcotest.(check int) "post-restart delivery" 1 !got;
  Alcotest.(check int) "outage loss" 1 (Sim.messages_lost_to_crashes net);
  (* crash/restart are idempotent *)
  Sim.restart net 1;
  Sim.crash net 0;
  Sim.crash net 0;
  Alcotest.(check int) "idempotent crash counted once" 2 (Sim.crash_events net)

let test_send_range_check () =
  let net : unit Sim.t = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  Alcotest.check_raises "range" (Invalid_argument "Simnet.send: endpoint out of range")
    (fun () -> Sim.send net ~src:0 ~dst:5 ())

let test_no_handler_fails () =
  let net : unit Sim.t = Sim.create ~nodes:2 ~delay:Sim.Unit () in
  Sim.send net ~src:0 ~dst:1 ();
  Alcotest.check_raises "no handler" (Failure "Simnet: message due but no handler installed")
    (fun () -> Sim.run net)

let test_exponential_delay_positive () =
  let net = Sim.create ~nodes:2 ~delay:(Sim.Exponential 2.0) () in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> ());
  for _ = 1 to 100 do
    Sim.send net ~src:0 ~dst:1 ()
  done;
  Sim.run net;
  Alcotest.(check bool) "clock advanced" true (Sim.now net > 0.0)

let test_same_timestamp_batch_order () =
  (* deliveries sharing one timestamp must drain in send (seq) order.
     Distinct links, so the FIFO clamp leaves all arrivals at exactly
     the unit delay and the whole burst is one timestamp *)
  let net = Sim.create ~nodes:21 ~delay:Sim.Unit () in
  let got = ref [] in
  Sim.set_handler net (fun ~src:_ ~dst:_ m -> got := m :: !got);
  for i = 1 to 20 do
    Sim.send net ~src:0 ~dst:i i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "seq order within the batch"
    (List.init 20 (fun i -> 20 - i))
    !got;
  Alcotest.(check (float 1e-9)) "all at unit time" 1.0 (Sim.now net)

let test_footprint_tracks_live_events () =
  (* sustained traffic through one simulator: the event store, message
     arena and link-clock table must track the in-flight population,
     not the total traffic that ever passed through *)
  let net = Sim.create ~nodes:20 ~delay:(Sim.Uniform (0.5, 1.5)) () in
  Sim.set_handler net (fun ~src:_ ~dst:_ _ -> ());
  let wave () =
    for i = 0 to 19 do
      Sim.send net ~src:i ~dst:((i + 1) mod 20) i
    done;
    Sim.run net
  in
  for _ = 1 to 100 do wave () done;
  let warm = Sim.footprint_words net in
  for _ = 1 to 400 do wave () done;
  let after = Sim.footprint_words net in
  (* 400 extra waves push 8_000 more events through the net; a per-event
     leak (the old per-message Hashtbl side-table) would add tens of
     thousands of words.  Amortized capacity ripening of the wheel and
     arenas is allowed, a traffic-proportional slope is not *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint bounded under sustained traffic (%d -> %d words)"
       warm after)
    true (after <= 2 * warm)

let suite =
  [
    Alcotest.test_case "single delivery" `Quick test_single_delivery;
    Alcotest.test_case "handler chaining" `Quick test_handler_chaining;
    Alcotest.test_case "fifo ordering" `Quick test_fifo_ordering;
    Alcotest.test_case "non-fifo reorders" `Quick test_no_fifo_can_reorder;
    Alcotest.test_case "schedule" `Quick test_schedule;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "drop faults" `Quick test_drop_faults;
    Alcotest.test_case "duplicate faults" `Quick test_duplicate_faults;
    Alcotest.test_case "partial drop rate" `Quick test_partial_drop_rate;
    Alcotest.test_case "reorder faults" `Quick test_reorder_faults;
    Alcotest.test_case "crash blackholes" `Quick test_crash_blackholes;
    Alcotest.test_case "crash restart" `Quick test_crash_restart;
    Alcotest.test_case "send range check" `Quick test_send_range_check;
    Alcotest.test_case "no handler fails" `Quick test_no_handler_fails;
    Alcotest.test_case "exponential delay" `Quick test_exponential_delay_positive;
    Alcotest.test_case "same-timestamp batch order" `Quick
      test_same_timestamp_batch_order;
    Alcotest.test_case "footprint tracks live events" `Quick
      test_footprint_tracks_live_events;
  ]
