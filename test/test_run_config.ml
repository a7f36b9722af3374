module RC = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let instance seed =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n:60 ~m:200 in
  Preference.random rng g ~quota:(Preference.uniform_quota g 3)

(* --- faults spec parser/printer ----------------------------------- *)

let test_faults_round_trip () =
  List.iter
    (fun f ->
      match Faults.of_string (Faults.to_string f) with
      | Ok f' -> Alcotest.(check bool) (Faults.to_string f) true (f = f')
      | Error e -> Alcotest.fail e)
    [
      Faults.none;
      Faults.make ~drop:0.2 ();
      Faults.make ~drop:0.1 ~duplicate:0.05 ~reorder:0.02 ();
      Faults.make ~fifo:false ();
      Faults.make ~crash:0.1 ~patience:30.0 ();
      Faults.make ~drop:0.3 ~fifo:false ~crash:0.05 ();
    ]

let test_faults_parse_examples () =
  (match Faults.of_string "drop=0.2,dup=0.1,unordered" with
  | Ok f ->
      Alcotest.(check (float 1e-9)) "drop" 0.2 f.Faults.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.1 f.Faults.duplicate;
      Alcotest.(check bool) "fifo off" false f.Faults.fifo
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "none" with
  | Ok f -> Alcotest.(check bool) "none is fault-free" false (Faults.any f)
  | Error _ -> Alcotest.fail "none must parse");
  Alcotest.(check bool) "bad key rejected" true
    (Result.is_error (Faults.of_string "explode=1.0"));
  Alcotest.(check bool) "out-of-range rejected" true
    (Result.is_error (Faults.of_string "drop=1.5"))

let test_effective_patience () =
  Alcotest.(check bool) "fault-free: none" true
    (Faults.effective_patience Faults.none = None);
  Alcotest.(check bool) "crashes arm default 60" true
    (Faults.effective_patience (Faults.make ~crash:0.1 ()) = Some 60.0);
  Alcotest.(check bool) "explicit wins" true
    (Faults.effective_patience (Faults.make ~crash:0.1 ~patience:5.0 ()) = Some 5.0)

(* --- engine vocabulary -------------------------------------------- *)

let test_engine_names_round_trip () =
  List.iter
    (fun e ->
      match RC.engine_of_string (RC.engine_name e) with
      | Ok e' -> Alcotest.(check bool) (RC.engine_name e) true (e = e')
      | Error msg -> Alcotest.fail msg)
    RC.all_engines

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* one name per engine: case and surrounding blanks are forgiven, the
   removed duplicates (the greedy comparator, the lid-byzantine alias of
   --byzantine, the lic-indexed spelling of lic) are not *)
let test_engine_aliases () =
  List.iter
    (fun (s, e) ->
      match RC.engine_of_string s with
      | Ok e' -> Alcotest.(check bool) s true (e = e')
      | Error msg -> Alcotest.fail msg)
    [ ("lic", RC.Lic_indexed); (" LIC ", RC.Lic_indexed); ("LID", RC.Lid) ];
  List.iter
    (fun s ->
      match RC.engine_of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error msg ->
          Alcotest.(check bool) (s ^ " lists the engines") true
            (contains msg "lic | lid | lid-reliable | dynamics"))
    [
      "greedy";
      "lid-byzantine";
      "lic-indexed";
      "indexed";
      "lic_indexed";
      "reliable";
      "byzantine";
      "lid_reliable";
      "quantum";
    ]

(* --- cross-field validation --------------------------------------- *)

let test_validate () =
  let ok c = Result.is_ok (RC.validate c) in
  Alcotest.(check bool) "default valid" true (ok RC.default);
  (* the layers compose: every former "mutually exclusive" pair is a
     legal selection of middleware now *)
  Alcotest.(check bool) "faults ride plain lid" true
    (ok (RC.make ~engine:RC.Lid ~faults:(Faults.make ~drop:0.2 ()) ()));
  Alcotest.(check bool) "reliable + faults valid" true
    (ok (RC.make ~engine:RC.Lid_reliable ~faults:(Faults.make ~drop:0.2 ()) ()));
  Alcotest.(check bool) "byzantine + channel faults valid" true
    (ok (RC.make ~engine:RC.Lid ~byzantine:"liar:0.2" ~faults:(Faults.make ~drop:0.1 ()) ()));
  Alcotest.(check bool) "byzantine rides plain lid" true
    (ok (RC.make ~engine:RC.Lid ~byzantine:"liar:0.2" ()));
  Alcotest.(check bool) "reliable flag on plain lid" true
    (ok (RC.make ~engine:RC.Lid ~reliable:true ()));
  Alcotest.(check bool) "full composition valid" true
    (ok
       (RC.make ~engine:RC.Lid ~reliable:true ~byzantine:"liar:0.2" ~guard:true
          ~faults:(Faults.make ~drop:0.1 ~reorder:0.2 ()) ()));
  Alcotest.(check bool) "byzantine + guard valid" true
    (ok (RC.make ~engine:RC.Lid ~byzantine:"liar:0.2" ~guard:true ()));
  (* genuinely meaningless combinations stay rejected, each on its own
     branch of validate *)
  Alcotest.(check bool) "out-of-range faults rejected" false
    (ok (RC.make ~faults:{ Faults.none with Faults.drop = 1.5 } ()));
  Alcotest.(check bool) "byzantine spec must parse" false
    (ok (RC.make ~engine:RC.Lid ~byzantine:"nonsense" ()));
  Alcotest.(check bool) "spec needs a lid-family engine" false
    (ok (RC.make ~engine:RC.Lic_indexed ~byzantine:"liar:0.2" ()));
  Alcotest.(check bool) "guard needs an adversary spec" false
    (ok (RC.make ~engine:RC.Lid ~guard:true ()));
  Alcotest.(check bool) "faults need a lid-family engine" false
    (ok (RC.make ~engine:RC.Dynamics ~faults:(Faults.make ~drop:0.2 ()) ()));
  Alcotest.(check bool) "reliable needs a lid-family engine" false
    (ok (RC.make ~engine:RC.Lic_indexed ~reliable:true ()));
  (* the rejection messages must say what to do, not just "no" *)
  (match RC.validate (RC.make ~engine:RC.Lid ~guard:true ()) with
  | Error msg ->
      Alcotest.(check bool) "guard message is actionable" true (contains msg "--byzantine")
  | Ok _ -> Alcotest.fail "guard without spec must be rejected")

(* --- the pipeline funnel ------------------------------------------ *)

let test_run_config_engines_agree () =
  let prefs = instance 5 in
  let run engine = Pipeline.run_config (RC.make ~engine ~seed:5 ()) prefs in
  let lic = run RC.Lic_indexed in
  let lid = run RC.Lid in
  let reliable = run RC.Lid_reliable in
  Alcotest.(check bool) "lid-reliable = lic matching" true
    (BM.equal lic.Pipeline.matching reliable.Pipeline.matching);
  Alcotest.(check bool) "lid = lic matching (Lemma 6)" true
    (BM.equal lic.Pipeline.matching lid.Pipeline.matching);
  Alcotest.(check bool) "engines reported" true
    (lic.Pipeline.engine = RC.Lic_indexed && lid.Pipeline.engine = RC.Lid)

let test_run_config_rejects_inconsistent () =
  let prefs = instance 6 in
  Alcotest.(check bool) "invalid config raises" true
    (match
       Pipeline.run_config (RC.make ~engine:RC.Lid ~guard:true ()) prefs
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* the simulator has one event store: a config or a Stack.run asking
   for any other shard count is refused with a reason *)
let test_sim_shards_rejected () =
  let prefs = instance 7 in
  let w = Weights.of_preference prefs in
  let capacity = Array.init (Graph.node_count (Preference.graph prefs)) (Preference.quota prefs) in
  Alcotest.(check bool) "sim_shards 1 valid" true (Result.is_ok (RC.validate RC.default));
  List.iter
    (fun sim_shards ->
      (match RC.validate { RC.default with sim_shards } with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "sim_shards %d: the reason names the field" sim_shards)
            true (contains msg "sim_shards")
      | Ok _ -> Alcotest.failf "sim_shards %d must be rejected" sim_shards);
      Alcotest.check_raises
        (Printf.sprintf "Stack.run ~sim_shards:%d raises" sim_shards)
        (Invalid_argument "Stack.run: sim_shards must be 1 (the event store has one shard)")
        (fun () -> ignore (Owp_core.Stack.run ~sim_shards w ~capacity)))
    [ 0; 2; 4 ]

(* --- anytime budget validation ------------------------------------ *)

let test_validate_budget () =
  let ok c = Result.is_ok (RC.validate c) in
  Alcotest.(check bool) "deadline on lid valid" true
    (ok (RC.make ~engine:RC.Lid ~deadline:5.0 ()));
  Alcotest.(check bool) "max-rounds on lid valid" true
    (ok (RC.make ~engine:RC.Lid ~max_rounds:4 ()));
  Alcotest.(check bool) "budget composes with everything" true
    (ok
       (RC.make ~engine:RC.Lid ~deadline:5.0 ~reliable:true ~byzantine:"liar:0.2"
          ~guard:true
          ~faults:(Faults.make ~drop:0.1 ~reorder:0.2 ()) ()));
  Alcotest.(check bool) "budgeted reported" true
    (RC.budgeted (RC.make ~deadline:1.0 ())
    && RC.budgeted (RC.make ~max_rounds:3 ())
    && not (RC.budgeted RC.default));
  Alcotest.(check bool) "both spellings rejected" false
    (ok (RC.make ~engine:RC.Lid ~deadline:5.0 ~max_rounds:4 ()));
  Alcotest.(check bool) "non-positive deadline rejected" false
    (ok (RC.make ~engine:RC.Lid ~deadline:0.0 ()));
  Alcotest.(check bool) "non-positive max-rounds rejected" false
    (ok (RC.make ~engine:RC.Lid ~max_rounds:0 ()));
  Alcotest.(check bool) "budget needs a lid-family engine" false
    (ok (RC.make ~engine:RC.Lic_indexed ~deadline:5.0 ()));
  (match RC.validate (RC.make ~engine:RC.Lid ~deadline:5.0 ~max_rounds:4 ()) with
  | Error msg ->
      Alcotest.(check bool) "double-budget message is actionable" true
        (contains msg "exactly one")
  | Ok _ -> Alcotest.fail "double budget must be rejected")

(* --- non-finite numbers in specs ----------------------------------- *)

(* every non-finite value a spec can carry is an [Error], never an
   exception and never a silently accepted run *)
let test_non_finite_specs_rejected () =
  let rejected label parse =
    match parse () with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  let spec name of_string =
    List.iter (fun s -> rejected (name ^ " " ^ s) (fun () -> of_string s))
  in
  spec "faults" Faults.of_string
    [ "patience=nan"; "patience=inf"; "drop=nan"; "dup=nan"; "reorder=nan"; "crash=nan" ];
  spec "schedule" Owp_simnet.Schedule.of_string
    [
      "down:1@1-nan";
      "down:1@1-inf";
      "burst:nan@1-2";
      "burst:0.5@nan-2";
      "flap:0.1:nan:0.5@1-5";
    ];
  spec "arrivals" Owp_serve.Arrivals.of_string [ "1:oracle=nan" ];
  List.iter
    (fun d ->
      rejected (Printf.sprintf "deadline %g" d) (fun () ->
          RC.validate (RC.make ~engine:RC.Lid ~deadline:d ())))
    [ Float.nan; Float.infinity ]

(* ROADMAP item 7: every spec parser answers a random short string,
   drawn from its own grammar's tokens, with [Ok] or [Error] and never
   an exception *)
let never_raises ~name tokens answer =
  QCheck2.Test.make ~name ~count:500 ~print:Fun.id
    QCheck2.Gen.(map (String.concat "") (list_size (0 -- 8) (oneofl tokens)))
    (fun s -> match answer s with Ok _ | Error _ -> true)

let numbers = [ "0"; "1"; "2"; "0.5"; "1.5"; "-"; "."; "e9"; "nan"; "inf"; " " ]

let spec_properties =
  [
    never_raises ~name:"Faults.of_string never raises"
      ([ "drop"; "dup"; "reorder"; "crash"; "patience"; "unordered"; "fifo"; "none"; "="; "," ]
      @ numbers)
      Faults.of_string;
    never_raises ~name:"Schedule.of_string and validate never raise"
      ([ "part"; "link"; "flap"; "burst"; "down"; ":"; "@"; ";"; "|"; "9" ] @ numbers)
      (fun s -> Result.bind (Schedule.of_string s) (Schedule.validate ~n:4));
    never_raises ~name:"Arrivals.of_string never raises"
      ([ "join"; "leave"; "repref"; "query"; "horizon"; "queue"; "oracle"; "warmup"; ":"; "="; "," ]
      @ numbers)
      Owp_serve.Arrivals.of_string;
    never_raises ~name:"validate never raises on --byzantine"
      ([ "liar"; "equivocator"; "flooder"; "replayer"; "violator"; ":"; "," ] @ numbers)
      (fun s -> RC.validate (RC.make ~byzantine:s ()));
  ]

let suite =
  [
    Alcotest.test_case "faults round trip" `Quick test_faults_round_trip;
    Alcotest.test_case "faults parse examples" `Quick test_faults_parse_examples;
    Alcotest.test_case "effective patience" `Quick test_effective_patience;
    Alcotest.test_case "engine names round trip" `Quick test_engine_names_round_trip;
    Alcotest.test_case "engine aliases" `Quick test_engine_aliases;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "run_config engines agree" `Quick test_run_config_engines_agree;
    Alcotest.test_case "run_config rejects inconsistent" `Quick test_run_config_rejects_inconsistent;
    Alcotest.test_case "validate budget" `Quick test_validate_budget;
    Alcotest.test_case "non-finite specs rejected" `Quick test_non_finite_specs_rejected;
    Alcotest.test_case "sim_shards other than 1 rejected" `Quick test_sim_shards_rejected;
  ]
  @ List.map QCheck_alcotest.to_alcotest spec_properties
