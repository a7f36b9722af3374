(* The layered stack against its references.

   The stack's claim is compositional faithfulness: with no middleware
   enabled it IS plain LID (bit-identical, not merely equivalent), with
   only the transport enabled it IS the reliable driver's convergence
   behaviour, and the historic driver configurations (robust,
   reliable, byzantine) add no protocol logic of their own — the
   PROP/REJ transitions exist in lid.ml and nowhere else. *)

module Lid = Owp_core.Lid
module Lic = Owp_core.Lic
module Stack = Owp_core.Stack
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

(* ------------------------------------------------------------------ *)
(* zero middleware = the reference driver, bit for bit                 *)
(* ------------------------------------------------------------------ *)

(* The oracle: Lid.init, Lid.start and Lid.deliver over Simnet with nothing in
   between — sends go straight to the simulator, deliveries straight to
   the machine, no dedup, no frames.  It shares the state machine with
   Stack.run and none of its layers. *)
let reference_run ~seed ?(fifo = true) ?(faults = Sim.no_faults) w ~capacity =
  let st = Lid.init w ~capacity in
  let n = Graph.node_count (Weights.graph w) in
  let net =
    Sim.create ~seed ~fifo ~faults ~nodes:(max n 1) ~delay:(Sim.Uniform (0.5, 1.5)) ()
  in
  let props = ref 0 and rejs = ref 0 in
  let emit src dst m =
    incr (match m with Lid.Prop -> props | Lid.Rej -> rejs);
    Sim.send net ~src ~dst m
  in
  Sim.set_handler net (fun ~src ~dst m -> Lid.deliver st ~src ~dst m ~emit);
  Lid.start st ~emit;
  Sim.run net;
  ( Lid.locked_edge_ids st,
    (!props, !rejs, Sim.messages_delivered net, Sim.messages_dropped net),
    Sim.now net,
    Lid.quiesced st )

let stack_digest (r : Stack.report) =
  ( BM.edge_ids r.Stack.matching,
    (r.Stack.prop_count, r.Stack.rej_count, r.Stack.delivered, r.Stack.dropped),
    r.Stack.completion_time,
    r.Stack.all_terminated )

let prop_zero_middleware_bit_identical =
  (* payload contents never touch the simulator's RNG, so an identical
     Simnet.send call order means identical delay samples: the stack
     with every layer disabled must replay the reference driver exactly
     — same matching, same PROP/REJ/delivery counts, same virtual
     completion time (never NaN, so polymorphic equality is exact) *)
  QCheck2.Test.make
    ~name:"stack with zero middleware is bit-identical to the reference driver"
    ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 24 6 2 in
      reference_run ~seed w ~capacity = stack_digest (Stack.run ~seed w ~capacity))

(* (fifo, faults): the channel regimes the experiments run plain LID
   under — E05c's loss, E21a's loss over non-FIFO links, and
   duplication plus stragglers mixed with loss *)
let fault_regimes =
  [
    (true, Sim.faults ~drop:0.2 ());
    (false, Sim.faults ~drop:0.3 ());
    (false, Sim.faults ~drop:0.1 ~duplicate:0.3 ~reorder:0.2 ());
  ]

let prop_zero_middleware_faults_bit_identical =
  (* under faults the stack's always-on dedup layer swallows repeats the
     reference feeds to the machine; Lid.deliver is idempotent to them,
     so the outcome must still be the same bit for bit *)
  QCheck2.Test.make ~name:"zero middleware under channel faults = reference driver"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, k) ->
      let fifo, faults = List.nth fault_regimes k in
      let _, _, w, capacity = random_instance seed 24 6 2 in
      reference_run ~seed ~fifo ~faults w ~capacity
      = stack_digest (Stack.run ~seed ~fifo ~faults w ~capacity))

let test_zero_middleware_layer_table () =
  let _, _, w, capacity = random_instance 3 16 5 2 in
  let r = Stack.run ~seed:3 w ~capacity in
  let names = List.map (fun l -> l.Stack.layer) r.Stack.layers in
  (* only the always-on layers appear; transport/adversary/guard rows
     exist exactly when enabled *)
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " row present") true (List.mem l names))
    [ "lid"; "detector"; "dedup"; "channel" ];
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " row absent") false (List.mem l names))
    [ "transport"; "adversary"; "guard" ];
  Alcotest.(check int) "lid row counts props" r.Stack.prop_count
    (Stack.counter r ~layer:"lid" "prop");
  Alcotest.(check (float 1e-9)) "no transport: overhead 1.0" 1.0 (Stack.overhead r)

(* ------------------------------------------------------------------ *)
(* the dedup row: suppression decisions pinned at fixed seeds          *)
(* ------------------------------------------------------------------ *)

let dedup_row r =
  ( Stack.counter r ~layer:"dedup" "suppressed-prop",
    Stack.counter r ~layer:"dedup" "suppressed-rej" )

let test_dedup_row_pinned () =
  (* pinned figures: any change to how repeats are recognised moves
     them *)
  let check label expected r =
    Alcotest.(check (pair int int)) label expected (dedup_row r)
  in
  (* duplicating channel, no ARQ underneath: every copy reaches dedup *)
  let _, _, w, capacity = random_instance 51 30 6 2 in
  check "dup=0.3 without ARQ" (21, 33)
    (Stack.run ~seed:51 ~faults:(Sim.faults ~duplicate:0.3 ()) w ~capacity);
  (* node 0 declines its neighbours, crashes, and rejoins retired: its
     amnesia announcement repeats REJs some neighbours already saw *)
  let _, _, w, capacity = random_instance 52 30 6 2 in
  check "crash-restart re-announcement" (0, 4)
    (Stack.run ~seed:52 ~patience:10.0
       ~crashes:[ { Stack.victim = 0; crash_at = 2.5; restart_at = Some 4.0 } ]
       w ~capacity);
  (* an unguarded violator PROPs a stranger (a non-neighbour) over a
     duplicating channel: repeats off the edge set must be caught too *)
  let _, p, w, capacity = random_instance 53 30 6 2 in
  let adversaries =
    Array.init 30 (fun i ->
        if i = 5 then Some Owp_simnet.Adversary.State_violator else None)
  in
  check "unguarded violator to a stranger" (40, 39)
    (Stack.run ~seed:53 ~faults:(Sim.faults ~duplicate:0.5 ()) ~adversaries ~prefs:p w
       ~capacity)

(* ------------------------------------------------------------------ *)
(* transport-only = the reliable configuration's E21a convergence rows *)
(* ------------------------------------------------------------------ *)

let test_transport_only_reproduces_e21_rows () =
  (* the E21a acceptance grid (loss x delivery order): every row must
     terminate with exactly LIC's edge set when the only middleware is
     the ARQ transport *)
  let _, _, w, capacity = random_instance 21 20 6 2 in
  let lic = Lic.run w ~capacity in
  List.iter
    (fun (drop, fifo) ->
      let faults = Sim.faults ~drop () in
      let r = Stack.run ~seed:3 ~fifo ~faults ~reliable:true w ~capacity in
      let label = Printf.sprintf "drop=%.1f fifo=%b" drop fifo in
      Alcotest.(check bool) (label ^ ": terminates") true r.Stack.all_terminated;
      Alcotest.(check bool) (label ^ ": = LIC") true (BM.equal r.Stack.matching lic);
      if drop > 0.0 then
        Alcotest.(check bool)
          (label ^ ": retransmissions visible")
          true
          (Stack.counter r ~layer:"transport" "retransmissions" > 0))
    [ (0.0, true); (0.1, true); (0.3, true); (0.0, false); (0.3, false) ]

(* ------------------------------------------------------------------ *)
(* the robust configuration is Lid behind layers, not a second machine *)
(* ------------------------------------------------------------------ *)

let test_robust_config_is_plain_lid_behaviour () =
  (* with no silent peers the robust configuration must reproduce plain
     LID's matching: it is Lid.init/Lid.deliver behind (inactive)
     layers, so the patience timers never fire and nothing diverges *)
  let _, _, w, capacity = random_instance 31 25 6 2 in
  let lid = Stack.run ~seed:9 w ~capacity in
  let r = Stack.run ~seed:9 ~patience:10.0 ~silent:(Array.make 25 false) w ~capacity in
  Alcotest.(check bool) "same matching" true (BM.equal lid.Stack.matching r.Stack.matching);
  Alcotest.(check int) "no patience fired" 0
    (Stack.counter r ~layer:"detector" "patience-fired");
  Alcotest.(check int) "no synthetic rejects" 0 r.Stack.synthetic_rejects

let test_no_second_state_machine_in_tree () =
  (* the textual grep of earlier revisions, now the typed state-machine
     lint rule over the core library's .cmt files: u_set/a_set/k_set may
     be *defined* only in lid.ml, while driving Lid's state through its
     API (which the grep could not distinguish) stays legal *)
  let candidates =
    [
      "../lib/core/.owp_core.objs/byte";
      "lib/core/.owp_core.objs/byte";
      "_build/default/lib/core/.owp_core.objs/byte";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> () (* core .cmt dir not reachable from the runner; the rule
                  itself is exercised by the lint fixtures *)
  | Some root -> (
      match
        Owp_lint.Driver.run ~only:[ "state-machine" ] ~roots:[ root ] ()
      with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check (list string))
            "no LID transition state outside lid.ml" []
            (List.map
               (fun f -> Format.asprintf "%a" Owp_lint.Finding.pp f)
               r.Owp_lint.Driver.findings))

(* ------------------------------------------------------------------ *)
(* composition smoke: all layers at once stay coherent                 *)
(* ------------------------------------------------------------------ *)

let test_full_composition_coherent () =
  (* guarded liars over a lossy reordering channel with ARQ underneath:
     correct peers terminate, damage certifies, and every enabled layer
     reports a row *)
  let _, p, w, capacity = random_instance 41 30 6 2 in
  let n = Graph.node_count (Preference.graph p) in
  let adversaries =
    Owp_simnet.Adversary.assign (Prng.create 41) ~n
      (Owp_simnet.Adversary.parse_spec "liar:0.2")
  in
  let faults = Sim.faults ~drop:0.1 ~reorder:0.2 () in
  let r =
    Stack.run ~seed:41 ~fifo:false ~faults ~reliable:true ~adversaries ~guard:true
      ~prefs:p w ~capacity
  in
  Alcotest.(check bool) "correct peers terminate" true r.Stack.all_terminated;
  Alcotest.(check (list string)) "damage certifies" []
    (List.map (fun v -> v.Owp_check.Violation.checker) r.Stack.damage);
  Alcotest.(check int) "precision" 0
    (Stack.counter r ~layer:"guard" "false-quarantines");
  let names = List.map (fun l -> l.Stack.layer) r.Stack.layers in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " row present") true (List.mem l names))
    [ "lid"; "detector"; "adversary"; "guard"; "dedup"; "transport"; "channel" ]

(* ------------------------------------------------------------------ *)
(* replay: bit-identity through the full composition                   *)
(* ------------------------------------------------------------------ *)

module Schedule = Owp_simnet.Schedule

(* everything a run produced that a scheduling difference could perturb
   (completion_time is a float, but never NaN, so polymorphic equality
   is exact) *)
let report_digest (r : Stack.report) =
  ( BM.edge_ids r.Stack.matching,
    (r.Stack.prop_count, r.Stack.rej_count, r.Stack.synthetic_rejects),
    r.Stack.completion_time,
    r.Stack.all_terminated,
    (match r.Stack.cutoff with
    | Some c -> (c.Stack.cut_at, c.Stack.released, c.Stack.abandoned)
    | None -> (0.0, -1, -1)),
    List.map (fun { Stack.layer; counters } -> (layer, counters)) r.Stack.layers )

let prop_full_composition_replays =
  (* with every layer enabled at once (lossy reordering channel + ARQ
     + scheduled weather + guarded liars + an anytime deadline), a
     second run at the same seed must replay the first bit for bit —
     same edge set, same counters in every layer row, same virtual
     completion time *)
  QCheck2.Test.make
    ~name:"full composition is bit-identical on replay" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, p, w, capacity = random_instance seed 40 6 2 in
      let n = Graph.node_count (Preference.graph p) in
      let adversaries =
        Owp_simnet.Adversary.assign (Prng.create seed) ~n
          (Owp_simnet.Adversary.parse_spec "liar:0.2")
      in
      let weather =
        [
          { Schedule.from_ = 2.0; until = 5.0; what = Schedule.Burst 0.4 };
          { Schedule.from_ = 4.0; until = 7.0; what = Schedule.Link_down [ (0, 1) ] };
        ]
      in
      let run () =
        report_digest
          (Stack.run ~seed ~fifo:false
             ~faults:(Sim.faults ~drop:0.05 ~reorder:0.1 ())
             ~schedule:weather ~reliable:true ~deadline:6.0
             ~adversaries ~guard:true ~prefs:p w ~capacity)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* the whole counter table, pinned                                     *)
(* ------------------------------------------------------------------ *)

(* row order, counter names and values together, one row a line, at
   one seed: the zero-layer table and the table with all nine layers
   enabled (the composition of the replay property above).  A row that
   moves, a counter that is renamed and a value that changes all fail
   here. *)
let table (r : Stack.report) =
  List.map
    (fun { Stack.layer; counters } ->
      String.concat " " (layer :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
    r.Stack.layers

let quiet_detector =
  "detector patience-armed=0 patience-fired=0 suppressed-give-ups=0 \
   transport-give-ups=0 quarantine-give-ups=0 synthetic-rej=0 quiet-rounds=0 stub-rej=0"

let test_counter_table_pinned () =
  let _, _, w, capacity = random_instance 3 16 5 2 in
  Alcotest.(check (list string)) "zero-layer table"
    [
      "lid prop=39 rej=31 delivered=70 locks=13";
      quiet_detector;
      "dedup suppressed-prop=0 suppressed-rej=0";
      "channel sent=70 delivered=70 dropped=0 reordered=0 lost-to-crashes=0 crashes=0";
    ]
    (table (Stack.run ~seed:3 w ~capacity));
  let seed = 7 in
  let _, p, w, capacity = random_instance seed 40 6 2 in
  let n = Graph.node_count (Preference.graph p) in
  let adversaries =
    Owp_simnet.Adversary.assign (Prng.create seed) ~n
      (Owp_simnet.Adversary.parse_spec "liar:0.2")
  in
  let weather =
    [
      { Schedule.from_ = 2.0; until = 5.0; what = Schedule.Burst 0.4 };
      { Schedule.from_ = 4.0; until = 7.0; what = Schedule.Link_down [ (0, 1) ] };
    ]
  in
  Alcotest.(check (list string)) "nine-layer table"
    [
      "lid prop=67 rej=98 delivered=102 locks=27";
      "deadline released=7 half-locks=0 abandoned=176 suppressed=0";
      quiet_detector;
      "adversary peers=8 messages=17";
      "guard inspected=115 quarantines=41 false-quarantines=0 overclaim=41";
      "dedup suppressed-prop=0 suppressed-rej=0";
      "transport data=182 retransmissions=80 acks=195 dup-suppressed=36 frames=457 \
       dead-links=0 suspected=0 resumed=0 held-give-ups=0";
      "channel sent=457 delivered=297 dropped=17 reordered=45 lost-to-crashes=0 crashes=0";
      "schedule episodes=2 cut=65";
    ]
    (table
       (Stack.run ~seed ~fifo:false
          ~faults:(Sim.faults ~drop:0.05 ~reorder:0.1 ())
          ~schedule:weather ~reliable:true ~deadline:6.0 ~adversaries ~guard:true
          ~prefs:p w ~capacity))

(* The benchmark's composed workload at n = 300, through the pipeline
   the CLI runs: drop 0.05, reorder 0.1, unordered links, ARQ, 20%
   weight liars and the guard.  Hundreds of retransmissions and
   out-of-order arrivals walk the transport's window and reassembly
   paths far past what the n = 40 table above reaches. *)
let test_composed_table_pinned () =
  let module RC = Owp_core.Run_config in
  let module P = Owp_core.Pipeline in
  let module W = Owp_bench.Workloads in
  let inst =
    W.make ~seed:23 ~family:(W.Gnm_avg_deg 16.0) ~pref_model:W.Random_prefs ~n:300 ~quota:8
  in
  let faults =
    match Owp_simnet.Faults.of_string "drop=0.05,reorder=0.1,unordered" with
    | Ok f -> f
    | Error msg -> invalid_arg msg
  in
  let cfg =
    RC.make ~engine:RC.Lid ~seed:23 ~faults ~reliable:true ~byzantine:"liar:0.2"
      ~guard:true ()
  in
  match (P.run_config cfg inst.W.prefs).P.detail with
  | P.Plain -> Alcotest.fail "a LID run reports its stack"
  | P.Stack r ->
      Alcotest.(check (list string)) "composed table"
        [
          "lid prop=2077 rej=1485 delivered=2754 locks=888";
          quiet_detector;
          "adversary peers=60 messages=497";
          "guard inspected=3159 quarantines=808 false-quarantines=0 overclaim=808";
          "dedup suppressed-prop=0 suppressed-rej=0";
          "transport data=4059 retransmissions=1004 acks=4803 dup-suppressed=744 \
           frames=9866 dead-links=0 suspected=0 resumed=0 held-give-ups=0";
          "channel sent=9866 delivered=9360 dropped=506 reordered=959 \
           lost-to-crashes=0 crashes=0";
        ]
        (table r)

(* The detector and membership paths, which none of the tables above
   reaches.  (a) guarded adversaries over a lossy reordering channel
   with ARQ, one crash-restart and one fail-stop crash: transport
   give-ups, the amnesiac stub, dead links and the quiet rounds.  The
   two false quarantines hit restarted honest peers; they are pinned as
   the current behaviour, not endorsed.  (b) datagram LID with patience
   over a lossy duplicating channel, one crash-restart, one fail-stop
   crash and a silent peer: patience timers and dedup of re-announced
   declines. *)
let test_detector_tables_pinned () =
  let _, p, w, capacity = random_instance 12 40 6 2 in
  let adversaries =
    Owp_simnet.Adversary.assign (Prng.create 12) ~n:40
      (Owp_simnet.Adversary.parse_spec "violator:0.1,flooder:0.05,replayer:0.05")
  in
  Alcotest.(check (list string)) "guarded crash and restart"
    [
      "lid prop=77 rej=115 delivered=134 locks=19";
      "detector patience-armed=0 patience-fired=0 suppressed-give-ups=0 \
       transport-give-ups=9 quarantine-give-ups=28 synthetic-rej=42 quiet-rounds=1 \
       stub-rej=1";
      "adversary peers=8 messages=117";
      "guard inspected=216 quarantines=30 false-quarantines=2 duplicate-prop=15 \
       duplicate-rej=1 rej-after-prop=6 stale-epoch=4 stranger=4";
      "dedup suppressed-prop=0 suppressed-rej=0";
      "transport data=309 retransmissions=465 acks=361 dup-suppressed=70 frames=1135 \
       dead-links=10 suspected=0 resumed=0 held-give-ups=0";
      "channel sent=1135 delivered=683 dropped=57 reordered=112 lost-to-crashes=395 \
       crashes=2";
    ]
    (table
       (Stack.run ~seed:12 ~fifo:false
          ~faults:(Sim.faults ~drop:0.05 ~reorder:0.1 ())
          ~reliable:true ~adversaries ~guard:true ~prefs:p
          ~crashes:
            [
              { Stack.victim = 3; crash_at = 0.3; restart_at = Some 0.9 };
              { Stack.victim = 9; crash_at = 1.5; restart_at = None };
            ]
          w ~capacity));
  let _, _, w, capacity = random_instance 11 40 6 2 in
  Alcotest.(check (list string)) "datagram with patience"
    [
      "lid prop=105 rej=97 delivered=172 locks=27";
      "detector patience-armed=105 patience-fired=16 suppressed-give-ups=0 \
       transport-give-ups=0 quarantine-give-ups=0 synthetic-rej=16 quiet-rounds=0 \
       stub-rej=0";
      "dedup suppressed-prop=4 suppressed-rej=14";
      "channel sent=202 delivered=200 dropped=14 reordered=0 lost-to-crashes=7 crashes=2";
    ]
    (table
       (Stack.run ~seed:11
          ~faults:(Sim.faults ~drop:0.1 ~duplicate:0.1 ())
          ~patience:5.0
          ~silent:(Array.init 40 (fun i -> i = 17))
          ~crashes:
            [
              { Stack.victim = 3; crash_at = 1.0; restart_at = Some 4.0 };
              { Stack.victim = 9; crash_at = 2.0; restart_at = None };
            ]
          w ~capacity))

(* BENCH_E23.json's E23b anchor at n = 10^4: the instance of
   Workloads.make at seed 23 (G(n,m) of average degree 16, random
   preferences, b = 8), run by Stack.run with no layer enabled at the
   engine seed Hashtbl.hash of the instance label.  The protocol
   counters and the virtual completion time (printed with six
   decimals there) must be reproduced exactly. *)
let e23b_report =
  lazy
    (let module W = Owp_bench.Workloads in
     let inst =
       W.make ~seed:23 ~family:(W.Gnm_avg_deg 16.0) ~pref_model:W.Random_prefs ~n:10_000
         ~quota:8
     in
     Stack.run ~seed:(Hashtbl.hash inst.W.label) inst.W.weights ~capacity:inst.W.capacity)

let test_e23b_anchor () =
  let r = Lazy.force e23b_report in
  Alcotest.(check int) "PROP" 92418 r.Stack.prop_count;
  Alcotest.(check int) "REJ" 51428 r.Stack.rej_count;
  Alcotest.(check int) "delivered" 143846 r.Stack.delivered;
  Alcotest.(check string) "v-time" "11.590479"
    (Printf.sprintf "%.6f" r.Stack.completion_time);
  Alcotest.(check bool) "quiesced" true r.Stack.all_terminated

(* E23b's "baseline outputs" column, which CI gates on, must be able to
   say NO: the real 10^4 report matches its anchor, and the same report
   with one PROP more does not *)
let test_e23b_anchor_check_can_fail () =
  let module E23 = Owp_bench.E23_scale in
  let r = Lazy.force e23b_report in
  let a = List.assoc 10_000 E23.anchors in
  Alcotest.(check bool) "real report" true (E23.matches_anchor a r);
  Alcotest.(check bool) "PROP off by one" false
    (E23.matches_anchor a { r with Stack.prop_count = r.Stack.prop_count + 1 });
  Alcotest.(check string) "no anchor" "-" (E23.baseline_cell 30_000 r)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_zero_middleware_bit_identical;
    QCheck_alcotest.to_alcotest prop_zero_middleware_faults_bit_identical;
    Alcotest.test_case "zero-middleware layer table" `Quick
      test_zero_middleware_layer_table;
    Alcotest.test_case "dedup row pinned at fixed seeds" `Quick test_dedup_row_pinned;
    Alcotest.test_case "transport-only = E21a grid" `Quick
      test_transport_only_reproduces_e21_rows;
    Alcotest.test_case "robust config = plain LID" `Quick
      test_robust_config_is_plain_lid_behaviour;
    Alcotest.test_case "no second state machine" `Quick
      test_no_second_state_machine_in_tree;
    Alcotest.test_case "full composition coherent" `Quick test_full_composition_coherent;
    QCheck_alcotest.to_alcotest prop_full_composition_replays;
    Alcotest.test_case "counter table pinned" `Quick test_counter_table_pinned;
    Alcotest.test_case "composed workload table pinned" `Quick test_composed_table_pinned;
    Alcotest.test_case "detector and membership tables pinned" `Quick
      test_detector_tables_pinned;
    Alcotest.test_case "E23b anchor at n = 10^4" `Quick test_e23b_anchor;
    Alcotest.test_case "E23b anchor check can fail" `Quick test_e23b_anchor_check_can_fail;
  ]
