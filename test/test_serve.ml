(* The serving layer: arrival-spec language and the sustained-traffic
   session.

   The arrivals spec is CLI input like the faults/schedule specs, so it
   gets the same treatment: parse examples, validation rejections, and
   a QCheck round-trip property over random valid specs.  The session
   itself is checked for the properties the CLI advertises: identical
   reports across repeated runs at the same seed, the backlog bound
   honoured under a burst (excess requests shed, never queued), request
   accounting that adds up, and the full serve x deadline x guard
   composition producing a healthy report. *)

module RC = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module SR = Owp_core.Serve_report
module Serve = Owp_serve.Serve
module Arrivals = Owp_serve.Arrivals

let parse s =
  match Arrivals.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" s e

let prefs ?(n = 30) ?(seed = 11) () =
  let rng = Owp_util.Prng.create seed in
  let g = Gen.gnm rng ~n ~m:(n * 3) in
  Preference.random rng g ~quota:(Preference.uniform_quota g 3)

let lid_cfg ?(seed = 11) () =
  match RC.validate (RC.make ~engine:RC.Lid ~seed ()) with
  | Ok c -> c
  | Error m -> Alcotest.fail m

let report ?handicap ~arrivals cfg prefs =
  match Serve.run ?handicap ~arrivals cfg prefs with
  | Ok out -> Option.get out.Pipeline.serve
  | Error m -> Alcotest.failf "serve: %s" m

(* ------------------------------------------------------------------ *)
(* the spec language                                                    *)
(* ------------------------------------------------------------------ *)

let test_parse_examples () =
  let t = parse "4" in
  Alcotest.(check (float 1e-9)) "bare rate" 4.0 t.Arrivals.rate;
  Alcotest.(check bool) "bare rate keeps defaults" true
    (t = Arrivals.make ~rate:4.0 ());
  let t = parse "2.5:query=3" in
  Alcotest.(check (float 1e-9)) "rate" 2.5 t.Arrivals.rate;
  Alcotest.(check (float 1e-9)) "query weight" 3.0 t.Arrivals.query;
  let t = parse "8:join=1,leave=0.5,repref=0,horizon=300,queue=32,oracle=10,warmup=0.5" in
  Alcotest.(check (float 1e-9)) "leave" 0.5 t.Arrivals.leave;
  Alcotest.(check (float 1e-9)) "repref" 0.0 t.Arrivals.repref;
  Alcotest.(check (float 1e-9)) "horizon" 300.0 t.Arrivals.horizon;
  Alcotest.(check int) "queue" 32 t.Arrivals.queue;
  Alcotest.(check (float 1e-9)) "oracle" 10.0 t.Arrivals.oracle;
  Alcotest.(check (float 1e-9)) "warmup" 0.5 t.Arrivals.warmup

let test_parse_rejections () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Result.is_error (Arrivals.of_string s)))
    [
      "";                                   (* empty *)
      "fast";                               (* rate not a float *)
      "0";                                  (* rate must be positive *)
      "-1";                                 (* negative rate *)
      "1:queue=0";                          (* backlog bound below 1 *)
      "1:warmup=1";                         (* warmup must stay below 1 *)
      "1:join=-1";                          (* negative mix weight *)
      "1:join=0,leave=0,repref=0,query=0";  (* mix sums to zero *)
      "1:burst=2";                          (* unknown field *)
      "1:horizon=0";                        (* horizon must be positive *)
      "1e308";                              (* rate x horizon overflows to inf *)
      "1:horizon=1e300";                    (* rate x horizon past 10^6 *)
      "1:oracle=0.000001";                  (* 10^8 oracle samples *)
    ]

(* %.12g round-trips exactly on quarters, like the schedule spec's 64ths *)
let grid lo hi = QCheck2.Gen.(int_range lo hi >|= fun k -> float_of_int k /. 4.0)

let gen_arrivals =
  let open QCheck2.Gen in
  map2
    (fun ((rate, (join, leave)), (repref, query)) ((horizon, queue), (oracle, warmup)) ->
      Arrivals.make ~rate ~join ~leave ~repref ~query ~horizon ~queue ~oracle
        ~warmup ())
    (pair (pair (grid 1 64) (pair (grid 0 16) (grid 0 16))) (pair (grid 0 16) (grid 0 16)))
    (pair
       (pair (grid 4 1600) (int_range 1 128))
       (pair (grid 1 256) (int_range 0 3 >|= fun k -> float_of_int k /. 4.0)))

let prop_round_trip =
  QCheck2.Test.make ~name:"arrivals to_string re-parses to an equal spec" ~count:300
    gen_arrivals (fun a ->
      match Arrivals.validate a with
      | Error _ -> QCheck2.assume_fail ()
      | Ok a -> (
          match Arrivals.of_string (Arrivals.to_string a) with
          | Ok a' -> a = a'
          | Error e -> QCheck2.Test.fail_reportf "re-parse failed: %s" e))

(* ------------------------------------------------------------------ *)
(* the request stream                                                   *)
(* ------------------------------------------------------------------ *)

let test_generate_requests () =
  let arrivals = Arrivals.make ~rate:2.0 ~horizon:50.0 () in
  let reqs = Serve.generate_requests arrivals ~seed:3 ~n:20 in
  Alcotest.(check bool) "non-empty" true (reqs <> []);
  let sorted = ref true and in_range = ref true and prev = ref 0.0 in
  List.iter
    (fun r ->
      if r.Serve.at < !prev then sorted := false;
      prev := r.Serve.at;
      if r.Serve.at <= 0.0 || r.Serve.at > 50.0 then in_range := false;
      if r.Serve.target < 0 || r.Serve.target >= 20 then in_range := false)
    reqs;
  Alcotest.(check bool) "arrival times sorted" true !sorted;
  Alcotest.(check bool) "times in (0, horizon], targets in [0, n)" true !in_range;
  Alcotest.(check bool) "seeded stream replays" true
    (Serve.generate_requests arrivals ~seed:3 ~n:20 = reqs);
  Alcotest.(check bool) "seed changes the stream" true
    (Serve.generate_requests arrivals ~seed:4 ~n:20 <> reqs)

(* ------------------------------------------------------------------ *)
(* the session                                                          *)
(* ------------------------------------------------------------------ *)

let test_deterministic_replay () =
  let prefs = prefs () in
  let arrivals = parse "0.5:horizon=60" in
  let a = report ~arrivals (lid_cfg ()) prefs in
  let b = report ~arrivals (lid_cfg ()) prefs in
  Alcotest.(check string) "byte-identical summaries" (SR.summary a) (SR.summary b);
  let c = report ~arrivals (lid_cfg ~seed:12 ()) prefs in
  Alcotest.(check bool) "another seed serves another session" true
    (SR.summary a <> SR.summary c)

let test_accounting () =
  let prefs = prefs () in
  let arrivals = parse "1:horizon=40" in
  let r = report ~arrivals (lid_cfg ()) prefs in
  Alcotest.(check int) "served + shed = offered" r.SR.offered (r.SR.served + r.SR.shed);
  Alcotest.(check int) "per-kind counts cover the served requests" r.SR.served
    (r.SR.joins + r.SR.leaves + r.SR.reprefs + r.SR.queries);
  Alcotest.(check bool) "p50 <= p99 <= max" true
    (r.SR.p50 <= r.SR.p99 && r.SR.p99 <= r.SR.max_latency);
  Alcotest.(check bool) "oracle sampled" true (r.SR.oracle_samples > 0)

let test_backpressure_bound () =
  let prefs = prefs () in
  (* a burst far beyond the engine's service rate: the backlog must
     stop at the bound and everything beyond it must shed *)
  let arrivals = parse "8:horizon=30,queue=5" in
  let r = report ~arrivals (lid_cfg ()) prefs in
  Alcotest.(check bool) "queue depth bounded" true (r.SR.max_queue <= 5);
  Alcotest.(check bool) "excess load shed" true (r.SR.shed > 0);
  Alcotest.(check int) "nothing lost" r.SR.offered (r.SR.served + r.SR.shed)

let test_handicap_slows_service () =
  let prefs = prefs () in
  let arrivals = parse "0.25:horizon=60" in
  let base = report ~arrivals (lid_cfg ()) prefs in
  let slow = report ~handicap:10.0 ~arrivals (lid_cfg ()) prefs in
  Alcotest.(check bool) "handicap shows up in p99" true
    (slow.SR.p99 >= base.SR.p99 +. 10.0)

let test_compose_deadline_guard () =
  let prefs = prefs () in
  let cfg =
    match
      RC.validate
        (RC.make ~engine:RC.Lid ~seed:11 ~byzantine:"liar:0.2" ~guard:true ~deadline:8.0 ())
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let arrivals = parse "0.25:horizon=60" in
  let r = report ~arrivals cfg prefs in
  Alcotest.(check bool) "session completes" true (r.SR.served > 0);
  (* every mutation is budgeted: no service time may exceed the
     deadline plus a query round, so p99 stays under queue-free bounds *)
  Alcotest.(check bool) "steady satisfaction sampled" true (r.SR.oracle_samples > 0);
  Alcotest.(check bool) "steady satisfaction positive" true
    (r.SR.steady_satisfaction > 0.0)

let test_engine_rejections () =
  let prefs = prefs () in
  let arrivals = parse "1" in
  (match RC.validate (RC.make ~engine:RC.Lic_indexed ~seed:1 ()) with
  | Ok cfg ->
      Alcotest.(check bool) "centralized engine rejected" true
        (Result.is_error (Serve.run ~arrivals cfg prefs))
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "negative handicap rejected" true
    (Result.is_error (Serve.run ~handicap:(-1.0) ~arrivals (lid_cfg ()) prefs))

let test_no_nodes_rejected () =
  let g = Graph.of_edge_list 0 [] in
  let empty =
    Preference.random (Owp_util.Prng.create 1) g ~quota:(Preference.uniform_quota g 3)
  in
  Alcotest.(check (result unit string))
    "n = 0 is an Error" (Error "the instance has no nodes to serve requests for")
    (Result.map ignore (Serve.run ~arrivals:(parse "1") (lid_cfg ()) empty))

let test_session_memory_bounded () =
  (* a serve session builds a fresh pipeline (and so a fresh simulator)
     per mutation, so the long-lived risk is the simulator a session
     re-enters between requests: drive sustained request waves through
     one Simnet and assert its footprint does not track the traffic
     that has already drained *)
  let module Sim = Owp_simnet.Simnet in
  let n = 30 in
  let net = Sim.create ~seed:11 ~nodes:n ~delay:(Sim.Uniform (0.5, 1.5)) () in
  Sim.set_handler net (fun ~src ~dst m ->
      if m > 0 then Sim.send net ~src:dst ~dst:((dst + src) mod n) (m - 1));
  let wave k =
    for i = 0 to n - 1 do
      Sim.send net ~src:i ~dst:((i + k) mod n) 3
    done;
    Sim.run net
  in
  for k = 1 to 50 do wave k done;
  let warm = Sim.footprint_words net in
  for k = 51 to 500 do wave k done;
  let after = Sim.footprint_words net in
  Alcotest.(check bool)
    (Printf.sprintf "session footprint bounded (%d -> %d words)" warm after)
    true (after <= 2 * warm)

let suite =
  [
    Alcotest.test_case "arrivals parse examples" `Quick test_parse_examples;
    Alcotest.test_case "arrivals parse rejections" `Quick test_parse_rejections;
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "request stream generation" `Quick test_generate_requests;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "request accounting" `Quick test_accounting;
    Alcotest.test_case "backpressure bound under burst" `Quick test_backpressure_bound;
    Alcotest.test_case "handicap slows service" `Quick test_handicap_slows_service;
    Alcotest.test_case "serve x deadline x guard" `Quick test_compose_deadline_guard;
    Alcotest.test_case "rejections" `Quick test_engine_rejections;
    Alcotest.test_case "no nodes rejected" `Quick test_no_nodes_rejected;
    Alcotest.test_case "session memory bounded" `Quick test_session_memory_bounded;
  ]
