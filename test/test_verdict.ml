(* The run verdict: Pipeline.outcome.failures, the one place a run is
   judged.

   A table of small runs, each tripping (or waiving) one gate, checked
   line by line against the gate it must report; a serve session whose
   bootstrap run fails, which the session verdict must name; and the
   chaos fuzzer's pass/fail agreeing with the verdict on random
   schedules. *)

module RC = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module W = Owp_bench.Workloads
module Chaos = Owp_bench.Chaos
module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule
module Serve = Owp_serve.Serve
module Arrivals = Owp_serve.Arrivals

(* the CLI's default instance shape: G(n,m) with average degree 8,
   random lists, quota 3 *)
let prefs ~seed ~n =
  (W.make ~seed ~family:(W.Gnm_avg_deg 8.0) ~pref_model:W.Random_prefs ~n ~quota:3)
    .W.prefs

let schedule s =
  match Schedule.of_string s with Ok t -> t | Error m -> Alcotest.fail m

let patience = { Faults.none with Faults.patience = Some 5.0 }
let burst = schedule "burst:0.3@1-1.5"
let quiesce = "the protocol run did not quiesce"
let damage = "bounded damage"
let void_stabilize = "self-stabilization certificate VOID"
let checker = "checker"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* (name, seed, config, the gates [failures] must report, in order) *)
let table =
  [
    ("clean run passes", 7, RC.make ~seed:7 (), []);
    ( "no patience under drop=0.1: non-quiescence",
      3,
      RC.make ~seed:3 ~faults:{ Faults.none with Faults.drop = 0.1 } (),
      [ quiesce ] );
    ( "unguarded liars: damage",
      7,
      RC.make ~engine:RC.Lid ~seed:7 ~byzantine:"liar:0.3" (),
      [ damage ] );
    ( "burst with patience: VOID self-stabilization",
      7,
      RC.make ~seed:7 ~faults:patience ~schedule:burst (),
      [ void_stabilize ] );
    ( "VOID self-stabilization waived under an adversary spec",
      7,
      RC.make ~engine:RC.Lid ~seed:7 ~faults:patience ~schedule:burst
        ~byzantine:"liar:0.2" ~guard:true (),
      [ damage ] );
    ( "VOID self-stabilization waived under a deadline",
      7,
      RC.make ~seed:7 ~faults:patience ~schedule:burst ~deadline:3.0 (),
      [] );
    ("certified anytime cutoff passes", 7, RC.make ~seed:7 ~deadline:3.0 (), []);
    ( "checker violations",
      3,
      RC.make ~seed:3 ~faults:{ Faults.none with Faults.drop = 0.1 } ~check:true (),
      [ quiesce; checker ] );
  ]

let test_gate_table () =
  List.iter
    (fun (name, seed, cfg, gates) ->
      let out = Pipeline.run_config cfg (prefs ~seed ~n:60) in
      let failures = out.Pipeline.failures in
      Alcotest.(check int) (name ^ ": one line per gate") (List.length gates)
        (List.length failures);
      List.iter2
        (fun gate line ->
          Alcotest.(check bool) (Printf.sprintf "%s: %S reports %S" name line gate) true
            (starts_with gate line))
        gates failures)
    table

(* the certificates behind the waivers are still computed and VOID;
   only the verdict ignores them *)
let test_waived_certificates_present () =
  let out =
    Pipeline.run_config
      (RC.make ~seed:7 ~faults:patience ~schedule:burst ~deadline:3.0 ())
      (prefs ~seed:7 ~n:60)
  in
  (match out.Pipeline.stabilize with
  | Some c ->
      Alcotest.(check bool) "stabilization VOID" false (Owp_check.Stabilize.certified c)
  | None -> Alcotest.fail "a scheduled run carries a stabilization certificate");
  match out.Pipeline.anytime with
  | Some c -> Alcotest.(check bool) "anytime CERTIFIED" true (Owp_check.Anytime.certified c)
  | None -> Alcotest.fail "a cutoff run carries an anytime certificate"

let test_anytime_only_on_cutoff () =
  let p = prefs ~seed:7 ~n:60 in
  let plain = Pipeline.run_config (RC.make ~seed:7 ()) p in
  Alcotest.(check bool) "no cutoff, no certificate" true (plain.Pipeline.anytime = None);
  let lic = Pipeline.run_config (RC.make ~engine:RC.Lic_indexed ~seed:7 ()) p in
  Alcotest.(check bool) "centralized engine, no certificate" true
    (lic.Pipeline.anytime = None)

(* the session verdict covers the bootstrap run: this flap session's
   bootstrap does not quiesce, while its last run is healthy *)
let test_serve_reports_bootstrap () =
  let cfg = RC.make ~seed:7 ~schedule:(schedule "flap:0.1:1:0.5@1-5") () in
  let arrivals =
    match Arrivals.of_string "0.5:horizon=80" with
    | Ok a -> a
    | Error m -> Alcotest.fail m
  in
  match Serve.run ~arrivals cfg (prefs ~seed:7 ~n:60) with
  | Error m -> Alcotest.fail m
  | Ok out ->
      let failures = out.Pipeline.failures in
      Alcotest.(check bool) "run 0 (bootstrap) reported" true
        (List.exists (starts_with ("run 0: " ^ quiesce)) failures);
      List.iter
        (fun line ->
          Alcotest.(check bool) (line ^ " is tagged with its run") true
            (starts_with "run " line))
        failures

let test_serve_healthy_session () =
  let arrivals =
    match Arrivals.of_string "0.5:horizon=80" with
    | Ok a -> a
    | Error m -> Alcotest.fail m
  in
  match Serve.run ~arrivals (RC.make ~seed:11 ()) (prefs ~seed:11 ~n:60) with
  | Error m -> Alcotest.fail m
  | Ok out -> Alcotest.(check (list string)) "no failing run" [] out.Pipeline.failures

(* Chaos.run_one passes exactly when the verdict is empty, on seeded
   random schedules over plain, ARQ and guarded-liar stacks *)
let chaos_agrees_with_verdict =
  let p = prefs ~seed:5 ~n:30 in
  let stacks =
    [|
      RC.make ~seed:5 ();
      RC.make ~engine:RC.Lid_reliable ~seed:5 ();
      RC.make ~engine:RC.Lid ~seed:5 ~byzantine:"liar:0.2" ~guard:true ();
    |]
  in
  QCheck2.Test.make ~name:"Chaos.run_one passed = (failures = [])" ~count:24
    ~print:(fun (k, s) -> Printf.sprintf "stack %d, schedule seed %d" k s)
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 100_000))
    (fun (k, s) ->
      let cfg = stacks.(k) in
      let sched =
        Chaos.generate (Owp_util.Prng.create s) ~graph:(Preference.graph p)
          ~horizon:10.0 ~max_episodes:3
      in
      let verdict =
        (Pipeline.run_config { cfg with RC.schedule = sched } p).Pipeline.failures
      in
      (Chaos.run_one cfg p sched).Chaos.passed = (verdict = []))

let suite =
  [
    Alcotest.test_case "each gate reports its own line" `Quick test_gate_table;
    Alcotest.test_case "waived certificates are still computed" `Quick
      test_waived_certificates_present;
    Alcotest.test_case "anytime certificate only on a cutoff" `Quick
      test_anytime_only_on_cutoff;
    Alcotest.test_case "serve verdict names the bootstrap run" `Quick
      test_serve_reports_bootstrap;
    Alcotest.test_case "healthy serve session has no failures" `Quick
      test_serve_healthy_session;
    QCheck_alcotest.to_alcotest chaos_agrees_with_verdict;
  ]
