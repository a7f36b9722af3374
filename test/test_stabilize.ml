(* Self-stabilization: the heal-aware stack under scheduled weather,
   the Stabilize certificate, and the chaos fuzzer/shrinker.

   The claims under test, in order: a partition-heal-quiesce pipeline
   run carries a CERTIFIED stabilization certificate; the detector
   never fires a false give-up across a partition longer than its own
   patience (silence the weather explains is suppressed, the reliable
   transport suspects and then resumes the cut links, and the final
   matching is the clean LIC edge set); an empty schedule is
   bit-identical to no schedule at all; fail-stop deaths flip the
   certificate into its informational-convergence mode; and the chaos
   fuzzer finds a failing schedule for an unmasked datagram stack and
   shrinks it to a tiny true reproducer. *)

module Stack = Owp_core.Stack
module Lic = Owp_core.Lic
module Pipeline = Owp_core.Pipeline
module RC = Owp_core.Run_config
module Stabilize = Owp_check.Stabilize
module Schedule = Owp_simnet.Schedule
module Transport = Owp_simnet.Transport
module Chaos = Owp_bench.Chaos
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

let parse s =
  match Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" s e

let certificate out =
  match out.Pipeline.stabilize with
  | Some c -> c
  | None -> Alcotest.fail "scheduled run must carry a stabilization certificate"

(* ------------------------------------------------------------------ *)
(* partition, heal, quiesce, certify                                   *)
(* ------------------------------------------------------------------ *)

let test_partition_heal_certifies () =
  let rng = Prng.create 11 in
  let g = Gen.gnm rng ~n:48 ~m:144 in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
  let sched = parse "part:0.1.2.3.4.5.6.7.8.9.10.11@2-6" in
  let out =
    Pipeline.run_config
      (RC.make ~engine:RC.Lid_reliable ~seed:11 ~schedule:sched ())
      prefs
  in
  let c = certificate out in
  Alcotest.(check bool) "certified" true (Stabilize.certified c);
  Alcotest.(check bool) "quiesced" true c.Stabilize.quiesced;
  Alcotest.(check bool) "converged exactly (transient weather)" true
    c.Stabilize.converged;
  Alcotest.(check bool) "no deaths in a partition schedule" false
    c.Stabilize.deaths;
  Alcotest.(check (float 1e-9)) "heal instant" 6.0 c.Stabilize.t_heal;
  Alcotest.(check bool) "recovery clock ran" true (c.Stabilize.recovery_time >= 0.0);
  (match out.Pipeline.detail with
  | Pipeline.Stack r ->
      Alcotest.(check bool) "the partition actually cut messages" true
        (Stack.counter r ~layer:"schedule" "cut" > 0)
  | Pipeline.Plain -> Alcotest.fail "stack detail expected")

(* ------------------------------------------------------------------ *)
(* the detector across a partition longer than its patience            *)
(* ------------------------------------------------------------------ *)

let test_no_false_giveups_across_partition () =
  let _, prefs, w, capacity = random_instance 5 32 6 2 in
  (* partition [1, 9) splits off a third of the nodes; patience 2 would
     fire three times over inside it, and the fast transport config
     exhausts its whole retry ladder (0.5 * 3 rounds) many times over —
     every one of those give-ups would be false *)
  let sched =
    [
      {
        Schedule.from_ = 1.0;
        until = 9.0;
        what = Schedule.Partition [ List.init 11 (fun i -> i) ];
      };
    ]
  in
  let transport =
    { Transport.default_config with rto_initial = 0.5; rto_backoff = 1.0; max_retries = 2 }
  in
  let r =
    Stack.run ~seed:5 ~reliable:true ~transport ~patience:2.0 ~schedule:sched
      ~prefs w ~capacity
  in
  Alcotest.(check bool) "terminated after heal" true r.Stack.all_terminated;
  Alcotest.(check int) "no synthetic rejects: every give-up was held" 0
    r.Stack.synthetic_rejects;
  Alcotest.(check bool) "patience fires were suppressed" true
    (Stack.counter r ~layer:"detector" "suppressed-give-ups" > 0);
  Alcotest.(check bool) "transport suspected cut links" true
    (Stack.counter r ~layer:"transport" "suspected" > 0);
  Alcotest.(check bool) "suspected links resumed after heal" true
    (Stack.counter r ~layer:"transport" "resumed" > 0);
  (* with no give-up ever fired, the healed run is a delayed clean run:
     the final matching is exactly LIC's *)
  Alcotest.(check bool) "matching equals the clean LIC edge set" true
    (BM.equal r.Stack.matching (Lic.run w ~capacity))

let test_zero_episode_schedule_bit_identical () =
  let _, prefs, w, capacity = random_instance 9 24 6 2 in
  let plain = Stack.run ~seed:9 ~reliable:true ~prefs w ~capacity in
  let scheduled =
    Stack.run ~seed:9 ~reliable:true ~schedule:Schedule.empty ~prefs w ~capacity
  in
  Alcotest.(check bool) "same matching" true
    (BM.equal plain.Stack.matching scheduled.Stack.matching);
  Alcotest.(check int) "same prop count" plain.Stack.prop_count
    scheduled.Stack.prop_count;
  Alcotest.(check int) "same rej count" plain.Stack.rej_count scheduled.Stack.rej_count;
  Alcotest.(check (float 0.0)) "same completion time" plain.Stack.completion_time
    scheduled.Stack.completion_time;
  Alcotest.(check bool) "no schedule row" true
    (not (List.exists (fun l -> l.Stack.layer = "schedule") scheduled.Stack.layers))

(* ------------------------------------------------------------------ *)
(* fail-stop deaths: convergence goes informational                    *)
(* ------------------------------------------------------------------ *)

let test_down_episode_deaths_mode () =
  let rng = Prng.create 13 in
  let g = Gen.gnm rng ~n:40 ~m:120 in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 2) in
  let out =
    Pipeline.run_config
      (RC.make ~engine:RC.Lid_reliable ~seed:13 ~schedule:(parse "down:2.7@1-6") ())
      prefs
  in
  let c = certificate out in
  Alcotest.(check bool) "deaths flagged" true c.Stabilize.deaths;
  Alcotest.(check bool) "quiesced" true c.Stabilize.quiesced;
  Alcotest.(check bool) "feasible" true c.Stabilize.feasible;
  (* certified rests on quiescence + feasibility; convergence is
     measured but not demanded (LID locks are irrevocable, so a node
     half-locked toward a peer that died cannot reach the survivor
     reference) *)
  Alcotest.(check bool) "certified despite deaths" true (Stabilize.certified c)

(* ------------------------------------------------------------------ *)
(* certificate unit semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_certificate_diff_and_clamp () =
  let _, prefs, w, capacity = random_instance 3 12 4 2 in
  let inst ~edges ~reference ~t_heal ~quiesce_at =
    Stabilize.instance ~prefs w ~capacity ~edges ~reference ~t_heal ~quiesce_at
      ~quiesced:true
  in
  let c = Stabilize.check (inst ~edges:[ 1; 2 ] ~reference:[ 0; 1 ] ~t_heal:4.0 ~quiesce_at:10.0) in
  Alcotest.(check (list int)) "missing = reference \\ served" [ 0 ] c.Stabilize.missing;
  Alcotest.(check (list int)) "extra = served \\ reference" [ 2 ] c.Stabilize.extra;
  Alcotest.(check bool) "not converged" false c.Stabilize.converged;
  Alcotest.(check bool) "not certified (no deaths)" false (Stabilize.certified c);
  Alcotest.(check (float 1e-9)) "recovery time" 6.0 c.Stabilize.recovery_time;
  let early = Stabilize.check (inst ~edges:[] ~reference:[] ~t_heal:8.0 ~quiesce_at:3.0) in
  Alcotest.(check (float 1e-9)) "recovery clamps at zero" 0.0
    early.Stabilize.recovery_time;
  Alcotest.(check bool) "empty sets converge" true early.Stabilize.converged;
  Alcotest.check_raises "negative t_heal rejected"
    (Invalid_argument "Stabilize.instance: negative t_heal") (fun () ->
      ignore (inst ~edges:[] ~reference:[] ~t_heal:(-1.0) ~quiesce_at:0.0))

let test_certificate_deaths_gating () =
  let _, prefs, w, capacity = random_instance 3 12 4 2 in
  let diverged deaths =
    Stabilize.check
      (Stabilize.instance ~prefs ~deaths w ~capacity ~edges:[ 0 ] ~reference:[ 1 ]
         ~t_heal:1.0 ~quiesce_at:2.0 ~quiesced:true)
  in
  Alcotest.(check bool) "divergence voids a transient-weather certificate" false
    (Stabilize.certified (diverged false));
  Alcotest.(check bool) "deaths downgrade convergence to informational" true
    (Stabilize.certified (diverged true))

(* ------------------------------------------------------------------ *)
(* the chaos fuzzer and shrinker                                       *)
(* ------------------------------------------------------------------ *)

let chaos_instance () =
  let rng = Prng.create 7 in
  let g = Gen.gnm rng ~n:40 ~m:120 in
  Preference.random rng g ~quota:(Preference.uniform_quota g 2)

let test_chaos_reliable_passes () =
  let prefs = chaos_instance () in
  let cfg = RC.make ~engine:RC.Lid_reliable ~seed:7 () in
  let report = Chaos.fuzz ~trials:4 ~seed:7 cfg prefs in
  Alcotest.(check int) "all trials ran" 4 report.Chaos.trials_run;
  Alcotest.(check bool) "heal-aware composition certifies" true
    (report.Chaos.failure = None);
  Alcotest.(check bool) "the weather bit" true (report.Chaos.bitten > 0)

let test_chaos_vacuous_at_huge_horizon () =
  (* one episode per schedule, starting somewhere in [0.5, 5.5e11]:
     the run has long quiesced, so no trial's weather cuts a message
     and the report says the fuzz tested nothing, even on the
     known-bad datagram stack *)
  let prefs = chaos_instance () in
  let cfg = RC.make ~engine:RC.Lid ~seed:7 () in
  let report = Chaos.fuzz ~trials:5 ~max_episodes:1 ~horizon:1e12 ~seed:7 cfg prefs in
  Alcotest.(check bool) "no failure found" true (report.Chaos.failure = None);
  Alcotest.(check int) "no trial bit" 0 report.Chaos.bitten

let test_chaos_finds_and_shrinks () =
  let prefs = chaos_instance () in
  (* a bare datagram stack has nothing masking the weather: the fuzzer
     must find a failing schedule quickly and shrink it to a minimal
     true reproducer *)
  let cfg = RC.make ~engine:RC.Lid ~seed:7 () in
  let report = Chaos.fuzz ~trials:10 ~seed:7 cfg prefs in
  match report.Chaos.failure with
  | None -> Alcotest.fail "datagram stack survived 10 weather trials"
  | Some (_trial, original, shrunk) ->
      Alcotest.(check bool) "original schedule fails" false
        (Chaos.run_one cfg prefs original).Chaos.passed;
      Alcotest.(check bool) "shrunk reproducer still fails" false
        (Chaos.run_one cfg prefs shrunk).Chaos.passed;
      Alcotest.(check bool) "shrunk to at most 3 episodes" true
        (List.length shrunk <= 3);
      Alcotest.(check bool) "shrunk no larger than the original" true
        (List.length shrunk <= List.length original);
      (* the reproducer round-trips through the --schedule spec *)
      Alcotest.(check bool) "reproducer spec round-trips" true
        (match Schedule.of_string (Schedule.to_string shrunk) with
        | Ok s -> s = shrunk
        | Error _ -> false)

let suite =
  [
    Alcotest.test_case "partition-heal run certifies" `Quick
      test_partition_heal_certifies;
    Alcotest.test_case "no false give-ups across a partition" `Quick
      test_no_false_giveups_across_partition;
    Alcotest.test_case "zero-episode schedule is bit-identical" `Quick
      test_zero_episode_schedule_bit_identical;
    Alcotest.test_case "down episodes certify informationally" `Quick
      test_down_episode_deaths_mode;
    Alcotest.test_case "certificate diff and recovery clamp" `Quick
      test_certificate_diff_and_clamp;
    Alcotest.test_case "deaths gate the certified verdict" `Quick
      test_certificate_deaths_gating;
    Alcotest.test_case "chaos: reliable composition passes" `Quick
      test_chaos_reliable_passes;
    Alcotest.test_case "chaos: datagram stack fails and shrinks" `Quick
      test_chaos_finds_and_shrinks;
    Alcotest.test_case "chaos: a huge horizon tests nothing" `Quick
      test_chaos_vacuous_at_huge_horizon;
  ]
