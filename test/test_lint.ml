(* The typedtree analyzer against its fixture library: every rule
   demonstrably fires on its bad fixture at the exact source line, the
   clean twins stay clean, and suppression directives move findings out
   of the report.  The fixtures are compiled (warnings off) purely so
   dune emits their .cmt files; line numbers asserted here are pinned to
   test/lint_fixtures/*.ml. *)

module Driver = Owp_lint.Driver
module Finding = Owp_lint.Finding
module Registry = Owp_lint.Registry

let contains ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

let fixtures_root () =
  let candidates =
    [
      "lint_fixtures/.lint_fixtures.objs/byte";
      "test/lint_fixtures/.lint_fixtures.objs/byte";
      "_build/default/test/lint_fixtures/.lint_fixtures.objs/byte";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some r -> r
  | None ->
      Alcotest.fail "lint fixture .cmt directory not found (run dune build)"

(* one shared full-registry run over the fixtures *)
let result =
  lazy
    (match Driver.run ~roots:[ fixtures_root () ] () with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg)

let line_rules file findings =
  findings
  |> List.filter (fun f -> Filename.basename f.Finding.file = file)
  |> List.map (fun f -> (f.Finding.line, f.Finding.rule))

let check_file file expected () =
  let r = Lazy.force result in
  Alcotest.(check (list (pair int string)))
    file expected
    (line_rules file r.Driver.findings)

(* --- per-rule firing, with exact lines ----------------------------- *)

let test_pure_core_fires =
  (* Sys.time on line 9 is both an ambient effect and a clock read *)
  check_file "fx_pure_bad.ml"
    [
      (5, "pure-core");
      (7, "pure-core");
      (9, "clock-hygiene");
      (9, "pure-core");
    ]

let test_pure_core_clean = check_file "fx_pure_ok.ml" []

let test_hash_order_fires =
  check_file "fx_order_bad.ml" [ (3, "hash-order"); (5, "hash-order") ]

let test_hash_order_sorted_sink = check_file "fx_order_ok.ml" []

let test_clock_fires =
  check_file "fx_clock_bad.ml" [ (1, "clock-hygiene"); (3, "clock-hygiene") ]

let test_random_fires =
  check_file "fx_random_bad.ml" [ (1, "seeded-random"); (3, "seeded-random") ]

let test_float_fires =
  (* line 3 works through the type universe: pt is a float-carrying
     record declared in the same fixture *)
  check_file "fx_float_bad.ml"
    [ (3, "float-compare"); (5, "float-compare"); (7, "float-compare") ]

let test_float_clean = check_file "fx_float_ok.ml" []

let test_state_machine_fires =
  check_file "fx_state_machine_bad.ml"
    [ (3, "state-machine"); (3, "state-machine"); (5, "state-machine") ]

let test_layer_fires =
  check_file "fx_layer_bad.ml"
    [
      (18, "layer-conformance");
      (25, "layer-conformance");
      (40, "layer-conformance");
      (47, "layer-conformance");
      (65, "layer-conformance");
      (72, "layer-conformance");
    ]

(* one builder per layer: the second layer record built inside one
   top-level binding (line 21) trips the rule; one builder per layer
   is clean *)
let test_stack_layers_fire =
  check_file "fx_stack_layers_bad.ml" [ (21, "layer-conformance") ]

let test_stack_layers_clean = check_file "fx_stack_layers_ok.ml" []

let test_serve_clock_fires =
  (* lines 4 and 6 read the shim from a serve-named unit (forbidden
     only there); line 8 shows the base wall-clock rule still applies *)
  check_file "fx_serve_clock_bad.ml"
    [ (4, "clock-hygiene"); (6, "clock-hygiene"); (8, "clock-hygiene") ]

let test_simnet_clock_fires =
  (* a simnet-named unit is held to the serve layer's standard: lines 6
     and 8 read the shim (forbidden only in the simulator and serving
     layers); line 10 shows the base wall-clock rule still applies *)
  check_file "fx_simnet_clock_bad.ml"
    [ (6, "clock-hygiene"); (8, "clock-hygiene"); (10, "clock-hygiene") ]

let test_generic_compare_fires =
  (* line 5's <, = and <= and line 7's compare are instantiated at type
     variables; line 9's annotated twin stays clean *)
  check_file "fx_simnet_generic_bad.ml"
    [
      (5, "generic-compare");
      (5, "generic-compare");
      (5, "generic-compare");
      (7, "generic-compare");
    ]

let test_tuple_hash_key_fires =
  (* line 7 keys by an inline tuple, line 9 by a tuple abbreviation
     (mem and replace), line 11 by a triple *)
  check_file "fx_simnet_tuple_key_bad.ml"
    [
      (7, "tuple-hash-key");
      (9, "tuple-hash-key");
      (9, "tuple-hash-key");
      (11, "tuple-hash-key");
    ]

let test_tuple_hash_key_clean = check_file "fx_simnet_tuple_key_ok.ml" []

let test_exact_position () =
  (* one full-position anchor: the Unix.gettimeofday ident itself *)
  let r = Lazy.force result in
  let f =
    List.find
      (fun f -> Filename.basename f.Finding.file = "fx_clock_bad.ml")
      r.Driver.findings
  in
  Alcotest.(check (pair int int)) "line/col" (1, 15) (f.Finding.line, f.Finding.col)

(* dead-export: an unread export (line 3) and one only this file reads
   (line 5) are findings at their val lines; the allowed twin (line 8)
   is suppressed by the directive above it in the .mli *)
let test_dead_export_fires () =
  Alcotest.(check int) "this file reads Fx_exports.tested" 42
    (Lint_fixtures.Fx_exports.tested 21);
  let r = Lazy.force result in
  let messages file =
    List.filter_map
      (fun f ->
        if Filename.basename f.Finding.file = file then
          Some (f.Finding.line, f.Finding.message)
        else None)
  in
  Alcotest.(check (list (pair int string)))
    "findings"
    [
      ( 3,
        "`Fx_exports.unread' has no reader outside fx_exports.ml; drop it from \
         the interface, or delete it" );
      ( 5,
        "`Fx_exports.tested' is read only by tests (test_lint.ml); delete it \
         with them, or allow it as a reference, shared test input or test seam" );
    ]
    (messages "fx_exports.mli" r.Driver.findings);
  Alcotest.(check (list (pair int string)))
    "suppressed"
    [ (8, "`Fx_exports.allowed' has no reader outside fx_exports.ml; drop it from \
           the interface, or delete it") ]
    (messages "fx_exports.mli" r.Driver.suppressed)

(* --- suppression --------------------------------------------------- *)

let test_suppression_moves_finding () =
  let r = Lazy.force result in
  Alcotest.(check (list (pair int string)))
    "no active findings" []
    (line_rules "fx_order_suppressed.ml" r.Driver.findings);
  Alcotest.(check (list (pair int string)))
    "finding recorded as suppressed"
    [ (3, "hash-order") ]
    (line_rules "fx_order_suppressed.ml" r.Driver.suppressed)

(* --- registry and driver plumbing ---------------------------------- *)

let test_registry_complete () =
  let names = List.map (fun r -> r.Owp_lint.Rule.name) Registry.all in
  Alcotest.(check (list string))
    "ten rules, display order"
    [
      "pure-core";
      "hash-order";
      "clock-hygiene";
      "seeded-random";
      "float-compare";
      "generic-compare";
      "tuple-hash-key";
      "state-machine";
      "layer-conformance";
      "dead-export";
    ]
    names;
  List.iter (fun n -> Alcotest.(check bool) n true (Registry.find n <> None)) names

let test_rule_filter () =
  match Driver.run ~only:[ "clock-hygiene" ] ~roots:[ fixtures_root () ] () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      Alcotest.(check (list string)) "rules ran" [ "clock-hygiene" ] r.Driver.rules;
      Alcotest.(check bool) "only clock findings" true
        (List.for_all (fun f -> f.Finding.rule = "clock-hygiene") r.Driver.findings)

let test_unknown_rule_rejected () =
  match Driver.run ~only:[ "no-such-rule" ] ~roots:[ fixtures_root () ] () with
  | Ok _ -> Alcotest.fail "unknown rule accepted"
  | Error msg ->
      Alcotest.(check bool) "names the rule" true (contains ~affix:"no-such-rule" msg)

let test_missing_roots_rejected () =
  match Driver.run ~roots:[ "no/such/dir" ] () with
  | Ok _ -> Alcotest.fail "empty scan accepted"
  | Error _ -> ()

let test_json_report_shape () =
  let r = Lazy.force result in
  let json = Driver.to_json r in
  List.iter
    (fun affix -> Alcotest.(check bool) affix true (contains ~affix json))
    [ "\"findings\""; "\"suppressed\""; "\"files\""; "\"rules\""; "clock-hygiene" ]

let suite =
  [
    Alcotest.test_case "pure-core fires" `Quick test_pure_core_fires;
    Alcotest.test_case "pure-core clean twin" `Quick test_pure_core_clean;
    Alcotest.test_case "hash-order fires" `Quick test_hash_order_fires;
    Alcotest.test_case "hash-order sorted sink ok" `Quick test_hash_order_sorted_sink;
    Alcotest.test_case "clock-hygiene fires" `Quick test_clock_fires;
    Alcotest.test_case "seeded-random fires" `Quick test_random_fires;
    Alcotest.test_case "float-compare fires" `Quick test_float_fires;
    Alcotest.test_case "float-compare clean twin" `Quick test_float_clean;
    Alcotest.test_case "state-machine fires" `Quick test_state_machine_fires;
    Alcotest.test_case "layer-conformance fires" `Quick test_layer_fires;
    Alcotest.test_case "one builder per layer fires" `Quick test_stack_layers_fire;
    Alcotest.test_case "one builder per layer clean twin" `Quick test_stack_layers_clean;
    Alcotest.test_case "serve clock-hygiene fires" `Quick test_serve_clock_fires;
    Alcotest.test_case "simnet clock-hygiene fires" `Quick test_simnet_clock_fires;
    Alcotest.test_case "generic-compare fires" `Quick test_generic_compare_fires;
    Alcotest.test_case "tuple-hash-key fires" `Quick test_tuple_hash_key_fires;
    Alcotest.test_case "tuple-hash-key clean twin" `Quick test_tuple_hash_key_clean;
    Alcotest.test_case "exact position" `Quick test_exact_position;
    Alcotest.test_case "suppression" `Quick test_suppression_moves_finding;
    Alcotest.test_case "dead-export fires" `Quick test_dead_export_fires;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "rule filter" `Quick test_rule_filter;
    Alcotest.test_case "unknown rule rejected" `Quick test_unknown_rule_rejected;
    Alcotest.test_case "missing roots rejected" `Quick test_missing_roots_rejected;
    Alcotest.test_case "json report shape" `Quick test_json_report_shape;
  ]
