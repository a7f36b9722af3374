(* owp_benchmark: the end-to-end and per-layer benchmark of the path
   users run (owp run / check / serve -> Pipeline -> Stack -> Simnet).

     owp_benchmark.exe --workload NAME --seed N --seconds S --trace 0|1
       one workload in this process; the last line of standard output
       is {"correct", "attempted", "failed", "metrics"}
     owp_benchmark.exe --seed N [--trace 0|1] [--json OUT.json]
       every workload in turn, each in a fresh child process
     owp_benchmark.exe --quick --trace 0|1 --expect BENCHMARK.json
       the scaled-down preset; fails unless every metric BENCHMARK.json
       lists for that mode is printed and no operation failed
     owp_benchmark.exe --compare PARENT_DIR CHANGE_DIR
       paired comparison of two directories of --json result files,
       with the bounds of ./BENCHMARK.json

   One domain, runtime-default GC settings, one workload at a time. *)

(* the result object: the last line of a run, and a workload's entry in
   a --json file *)
let result_json (r : Suite.result) =
  Bjson.Obj
    [
      ("correct", Bjson.Bool (r.Suite.failed = 0));
      ("attempted", Bjson.Num (float_of_int r.Suite.attempted));
      ("failed", Bjson.Num (float_of_int r.Suite.failed));
      ( "metrics",
        Bjson.Obj
          (List.map
             (fun (m : Suite.metric) ->
               ( m.Suite.name,
                 Bjson.Obj [ ("value", Bjson.Num m.Suite.value); ("unit", Bjson.Str m.Suite.unit_) ] ))
             r.Suite.metrics) );
    ]

let results_file ~seed ~trace ~quick results =
  Bjson.Obj
    [
      ("seed", Bjson.Num (float_of_int seed));
      ("trace", Bjson.Num (float_of_int trace));
      ("quick", Bjson.Bool quick);
      ("workloads", Bjson.Obj results);
    ]

let write_json path j = Out_channel.with_open_text path (fun oc -> output_string oc (Bjson.to_string j ^ "\n"))

let print_metrics (r : Suite.result) =
  Printf.printf "%-34s %16s %-6s %7s %16s %16s\n" "metric" "median" "unit" "samples" "q1" "q3";
  List.iter
    (fun (m : Suite.metric) ->
      let q1, _, q3 =
        match m.Suite.samples with [] -> (0.0, 0.0, 0.0) | xs -> Quartiles.quartiles xs
      in
      Printf.printf "%-34s %16.6f %-6s %7d %16.6f %16.6f\n" m.Suite.name m.Suite.value m.Suite.unit_
        (List.length m.Suite.samples) q1 q3)
    (r.Suite.metrics @ r.Suite.shown);
  Printf.printf "operations: %d attempted, %d failed (error rate %.4f)\n" r.Suite.attempted
    r.Suite.failed
    (float_of_int r.Suite.failed /. float_of_int (max 1 r.Suite.attempted));
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) r.Suite.failures

let print_self_table sp =
  Printf.printf "%-30s %6s %14s %14s\n" "span (per-layer self time)" "calls" "total ms" "self ms";
  List.iter
    (fun (row : Spans.row) ->
      Printf.printf "%-30s %6d %14.3f %14.3f\n" row.Spans.layer row.Spans.calls row.Spans.total_ms
        row.Spans.self_total_ms)
    (Spans.self_table (Spans.spans sp))

(* one workload, in this process *)
let run_one ~quick ~seed ~seconds ~trace ~spans_out ~json (w : Suite.workload) =
  Printf.printf "== %s  seed %d  %s%s ==\n%!" w.Suite.name seed
    (if trace = 1 then "traced" else "untraced")
    (if quick then "  (quick)" else "");
  let result =
    if trace = 1 then begin
      let r, sp = Suite.traced ~quick w ~seed in
      print_self_table sp;
      Option.iter (fun path -> Spans.write_jsonl path sp) spans_out;
      r
    end
    else Suite.untraced ~quick ~seconds w ~seed
  in
  print_metrics result;
  Option.iter
    (fun path ->
      write_json path
        (results_file ~seed ~trace ~quick [ (w.Suite.name, result_json result) ]))
    json;
  print_endline (Bjson.to_string (result_json result));
  0

(* Runs a workload in a fresh child process, so peak heap and GC state
   do not leak between workloads; echoes its output and returns its
   result object. *)
let run_child ~quick ~seed ~seconds ~trace name =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  List.iter print_endline lines;
  flush stdout;
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Bjson.of_string last with
      | j -> Ok j
      | exception Bjson.Parse_error msg -> Error (name ^ ": unreadable result line: " ^ msg))
  | _ -> Error (name ^ ": child process failed")

let expected_names path ~trace =
  let key = if trace = 1 then "per_layer" else "end_to_end" in
  Option.fold ~none:[] ~some:Bjson.to_list (Bjson.member key (Bjson.read_file path))
  |> List.filter_map (fun m -> Option.bind (Bjson.member "name" m) Bjson.to_str)

let run_all ~quick ~seed ~seconds ~trace ~json ~expect =
  let results = ref [] and problems = ref [] in
  List.iter
    (fun (w : Suite.workload) ->
      match run_child ~quick ~seed ~seconds ~trace w.Suite.name with
      | Error msg -> problems := msg :: !problems
      | Ok j ->
          results := (w.Suite.name, j) :: !results;
          (match Option.bind (Bjson.member "failed" j) Bjson.to_num with
          | Some f when Float.equal f 0.0 -> ()
          | _ -> problems := (w.Suite.name ^ ": failed operations") :: !problems);
          Option.iter
            (fun path ->
              let printed = match Bjson.member "metrics" j with Some (Bjson.Obj ms) -> List.map fst ms | _ -> [] in
              List.iter
                (fun name ->
                  if not (List.mem name printed) then
                    problems := Printf.sprintf "%s: metric %s not printed" w.Suite.name name :: !problems)
                (expected_names path ~trace))
            expect)
    Suite.workloads;
  let results = List.rev !results in
  Option.iter (fun path -> write_json path (results_file ~seed ~trace ~quick results)) json;
  List.iter (fun p -> Printf.eprintf "PROBLEM %s\n" p) (List.rev !problems);
  Printf.printf "%d workloads, %d problems\n" (List.length results) (List.length !problems);
  if List.is_empty !problems then 0 else 1

let () =
  let workload = ref None and seed = ref 23 and seconds = ref 30.0 and trace = ref 0 in
  let quick = ref false and json = ref None and spans = ref None and expect = ref None in
  let compare = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N instance seed (default 23)");
      ("--seconds", Arg.Set_float seconds, "S time budget of the timed calls, at least three (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE write the traced run's spans as JSONL");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the results as JSON");
      ("--quick", Arg.Set quick, " scaled-down workloads, one timed call each");
      ("--expect", Arg.String (fun s -> expect := Some s), "FILE fail unless every metric FILE lists is printed");
      ( "--compare",
        Arg.Tuple
          [ Arg.String (fun s -> compare := [ s ]); Arg.String (fun s -> compare := !compare @ [ s ]) ],
        "PARENT_DIR CHANGE_DIR paired comparison of result files" );
    ]
  in
  let usage = "owp_benchmark.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] ..." in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      2
    end
    else
      match (!compare, !workload) with
      | [ parent; change ], _ -> Compare.run ~benchmark:"BENCHMARK.json" parent change
      | _, Some name -> (
          match Suite.find name with
          | Some w ->
              run_one ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace:!trace ~spans_out:!spans
                ~json:!json w
          | None ->
              Printf.eprintf "unknown workload %s (known: %s)\n" name
                (String.concat ", " (List.map (fun (w : Suite.workload) -> w.Suite.name) Suite.workloads));
              2)
      | _, None ->
          run_all ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
            ~expect:!expect
  in
  exit code
