(* owp — command-line driver for the overlays-with-preferences library.

   Subcommands:
     owp generate    synthesise a potential-connection graph
     owp stats       structural metrics of a graph file
     owp run         build an overlay matching with a chosen engine
     owp serve       drive the stack with a sustained request stream
     owp verify      check a saved matching against a graph and quota
     owp check       run the invariant checkers / interleaving explorer
     owp chaos       fuzz the stack with random fault schedules, shrink failures
     owp lint        static analysis over the .cmt typedtrees dune emits
     owp bench       regenerate experiment tables (E0..E27): --quick, --json,
                     --gate
     owp list        list available experiments

   Every stack-running subcommand (`run`, `serve`, `check`, `chaos`,
   `bench`) shares the one Owp_cli term bundle: the same instance and
   composition flags everywhere, funnelled into one validated
   Owp_core.Run_config.t and handed to Pipeline.run_config (or the
   serving engine).  This file only keeps the per-subcommand verbs and
   printers. *)

open Cmdliner
module RC = Owp_core.Run_config
module P = Owp_core.Pipeline
module BM = Owp_matching.Bmatching
module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule

(* a usage error: one `<cmd>: ...` line on stderr, exit 2 *)
let usage_error cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  2

(* the validated config and the instance a stack-running subcommand
   needs; either one failing is a usage error *)
let setup spec =
  Result.bind (Owp_cli.config spec) (fun cfg ->
      Result.map (fun inst -> (cfg, inst)) (Owp_cli.instance spec))

(* ------------------------------------------------------------------ *)
(* generate                                                             *)
(* ------------------------------------------------------------------ *)

let generate seed family n out =
  match Owp_bench.Workloads.fits family ~n with
  | Error msg -> usage_error "generate" msg
  | Ok () ->
      let inst = Owp_bench.Workloads.make ~seed ~family ~pref_model:Owp_bench.Workloads.Random_prefs ~n ~quota:1 in
      let text = Graph_io.to_string inst.Owp_bench.Workloads.graph in
      (match out with
      | None -> print_string text
      | Some path ->
          Graph_io.write path inst.Owp_bench.Workloads.graph;
          Printf.printf "wrote %s (%d nodes, %d edges)\n" path
            (Graph.node_count inst.Owp_bench.Workloads.graph)
            (Graph.edge_count inst.Owp_bench.Workloads.graph));
      0

let generate_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a potential-connection graph")
    Term.(
      const generate $ Owp_cli.seed_arg $ Owp_cli.family_arg $ Owp_cli.n_arg $ out)

(* ------------------------------------------------------------------ *)
(* stats                                                                *)
(* ------------------------------------------------------------------ *)

let stats file =
  match Graph_io.read file with
  | Error msg -> usage_error "stats" (file ^ ": " ^ msg)
  | Ok g ->
      let _, components = Metrics.connected_components g in
      Printf.printf "nodes               : %d\n" (Graph.node_count g);
      Printf.printf "edges               : %d\n" (Graph.edge_count g);
      Printf.printf "average degree      : %.2f\n" (Metrics.average_degree g);
      Printf.printf "max degree          : %d\n" (Graph.max_degree g);
      Printf.printf "density             : %.5f\n" (Metrics.density g);
      Printf.printf "components          : %d\n" components;
      Printf.printf "diameter (lower bnd): %d\n" (Metrics.eccentricity_lower_bound g);
      Printf.printf "triangles           : %d\n" (Metrics.triangle_count g);
      Printf.printf "global clustering   : %.4f\n" (Metrics.global_clustering g);
      0

let stats_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"Edge-list file.") in
  Cmd.v (Cmd.info "stats" ~doc:"Structural metrics of a graph file") Term.(const stats $ file)

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let save_matching inst m path =
  let text =
    Graph_io.matching_to_string inst.Owp_bench.Workloads.graph
      (Owp_matching.Bmatching.edge_ids m)
  in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  Printf.printf "matching saved      : %s\n" path

(* The uniform per-layer counter table: one row per enabled middleware
   layer, top of the stack first. *)
let print_layer_table (r : Owp_core.Stack.report) =
  print_endline "layer counters      :";
  List.iter
    (fun { Owp_core.Stack.layer; counters } ->
      Printf.printf "  %-9s %s\n" layer
        (String.concat ", " (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) counters)))
    r.Owp_core.Stack.layers

(* One printer for every stack composition: transport accounting when
   the ARQ layer ran, adversary/guard accounting when adversaries were
   in play, then the per-layer counter table. *)
let print_stack_detail prefs (cfg : RC.t) (r : Owp_core.Stack.report) =
  let module Stack = Owp_core.Stack in
  let counter = Stack.counter r in
  let transport_on = List.exists (fun l -> l.Stack.layer = "transport") r.Stack.layers in
  if transport_on then begin
    Printf.printf "wire frames         : %d (%d data + %d retrans + %d ack)\n"
      (counter ~layer:"transport" "frames")
      (counter ~layer:"transport" "data")
      (counter ~layer:"transport" "retransmissions")
      (counter ~layer:"transport" "acks");
    Printf.printf "transport overhead  : %.2f frames/protocol message\n"
      (Stack.overhead r)
  end;
  let reordered = counter ~layer:"channel" "reordered"
  and lost_to_crashes = counter ~layer:"channel" "lost-to-crashes" in
  if r.Stack.dropped + reordered + lost_to_crashes > 0 then
    Printf.printf "channel losses      : %d dropped, %d straggled, %d lost at down \
                   hosts\n"
      r.Stack.dropped reordered lost_to_crashes;
  if r.Stack.synthetic_rejects > 0 then
    Printf.printf "give-ups            : %d synthetic REJ (%d dead links, %d quiet \
                   round(s))\n"
      r.Stack.synthetic_rejects
      (counter ~layer:"transport" "dead-links")
      (counter ~layer:"detector" "quiet-rounds");
  (match cfg.RC.byzantine with
  | None -> ()
  | Some spec ->
      let n = Array.length r.Stack.correct in
      let retained = Stack.satisfaction_of_correct prefs r in
      let reference = Stack.reference_satisfaction prefs ~correct:r.Stack.correct in
      Printf.printf "adversaries         : %s (%d of %d peers)\n" spec
        (counter ~layer:"adversary" "peers") n;
      Printf.printf "guard               : %s\n"
        (if cfg.RC.guard then "on" else "off (baseline)");
      Printf.printf
        "satisfaction        : %.4f retained of %.4f crash-only ideal (%.1f%%)\n"
        retained reference
        (if reference = 0.0 then 100.0 else 100.0 *. retained /. reference);
      Printf.printf "adversarial msgs    : %d\n" (counter ~layer:"adversary" "messages");
      Printf.printf "quarantines         : %d (%d false), %d of %d offenders caught\n"
        r.Stack.quarantine_events
        (counter ~layer:"guard" "false-quarantines")
        r.Stack.byz_quarantined
        r.Stack.byz_offenders;
      if r.Stack.offence_counts <> [] then
        Printf.printf "offences            : %s\n"
          (String.concat ", "
             (List.map
                (fun (k, c) -> Printf.sprintf "%s x%d" k c)
                r.Stack.offence_counts));
      Printf.printf "wasted slots        : %d (locked towards Byzantine peers)\n"
        r.Stack.wasted_slots;
      (match r.Stack.unterminated with
      | [] -> ()
      | stuck ->
          Printf.printf "stuck correct peers : %s\n"
            (String.concat " " (List.map string_of_int stuck)));
      match r.Stack.damage with
      | [] ->
          print_endline
            "bounded damage      : certified (termination, feasibility, relativized \
             Lemma 6)"
      | vs ->
          Printf.printf "bounded damage      : %d violation(s)\n" (List.length vs);
          Format.printf "%a@." Owp_check.Violation.pp_list vs);
  print_layer_table r

(* A budgeted run prints its cutoff and the anytime certificate
   Pipeline computed against the unbudgeted reference run. *)
let print_anytime_certificate (out : P.outcome) =
  match (out.P.detail, out.P.anytime) with
  | P.Stack { Owp_core.Stack.cutoff = Some c; _ }, Some cert ->
      Printf.printf
        "cutoff              : budget %.2f, released %d, half-locks %d, abandoned %d\n"
        c.Owp_core.Stack.cut_at c.Owp_core.Stack.released c.Owp_core.Stack.half_locks
        c.Owp_core.Stack.abandoned;
      print_string (Owp_check.Anytime.to_string cert)
  | _ -> ()

(* A scheduled run prints its self-stabilization certificate; whether
   a VOID one fails the run is Pipeline's verdict. *)
let print_stabilize_certificate (out : P.outcome) =
  Option.iter (fun c -> print_string (Owp_check.Stabilize.to_string c)) out.P.stabilize

(* The exit code of a run: Pipeline's verdict, never re-derived here. *)
let exit_code (out : P.outcome) = if out.P.failures = [] then 0 else 1

(* One printer for every engine: the generic outcome block, then the
   engine-specific accounting carried in [outcome.detail], then the
   timing summary as the final line. *)
let print_outcome (cfg : RC.t) inst (out : P.outcome) save =
  let prefs = inst.Owp_bench.Workloads.prefs in
  let q = Owp_overlay.Quality.measure prefs out.P.matching out.P.profile in
  Printf.printf "instance            : %s\n" inst.Owp_bench.Workloads.label;
  Printf.printf "engine              : %s\n" (RC.engine_name out.P.engine);
  if Faults.any cfg.RC.faults then
    Printf.printf "faults              : %s\n" (Faults.to_string cfg.RC.faults);
  Printf.printf "links established   : %d\n" (BM.size out.P.matching);
  Printf.printf "total weight (eq.9) : %.4f\n" out.P.total_weight;
  Printf.printf "total satisfaction  : %.4f\n" out.P.total_satisfaction;
  Format.printf "quality             : %a@." Owp_overlay.Quality.pp q;
  (match out.P.guarantee with
  | Some b -> Printf.printf "satisfaction bound  : %.4f of optimum (Theorem 3)\n" b
  | None -> ());
  (match out.P.detail with
  | P.Plain -> ()
  | P.Stack r -> print_stack_detail prefs cfg r);
  print_anytime_certificate out;
  print_stabilize_certificate out;
  (match out.P.quiesced with
  | Some q -> Printf.printf "quiesced            : %b\n" q
  | None -> ());
  (match out.P.check_report with
  | Some report -> print_string (Owp_check.Checker.report_to_string report)
  | None -> ());
  (match save with None -> () | Some path -> save_matching inst out.P.matching path);
  Printf.printf "-- wall %.2f ms%s%s\n" out.P.wall_ms
    (match out.P.rounds with
    | Some r -> Printf.sprintf ", rounds %.2f" r
    | None -> "")
    (match out.P.messages with
    | Some m -> Printf.sprintf ", messages %d" m
    | None -> "");
  exit_code out

let run_overlay spec save =
  match setup spec with
  | Error msg -> usage_error "run" msg
  | Ok (cfg, inst) ->
      print_outcome cfg inst (P.run_config cfg inst.Owp_bench.Workloads.prefs) save

let run_cmd =
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Write the selected connections as an edge list.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Build an overlay matching and report its quality")
    Term.(const run_overlay $ Owp_cli.term $ save)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let arrivals_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Owp_serve.Arrivals.of_string s) in
  Arg.conv (parse, Owp_serve.Arrivals.pp)

(* the sustained-traffic session: same instance and composition flags
   as `run`, plus the arrival-process spec; the exit code is the
   session verdict, which covers every engine run of the session (the
   bootstrap and each mutation), one line per failing run *)
let serve_session spec arrivals handicap =
  match setup spec with
  | Error msg -> usage_error "serve" msg
  | Ok (cfg, inst) -> (
      match
        Owp_serve.Serve.run ~handicap ~arrivals cfg inst.Owp_bench.Workloads.prefs
      with
      | Error msg -> usage_error "serve" msg
      | Ok out ->
          let report = Option.get out.P.serve in
          Printf.printf "instance            : %s\n" inst.Owp_bench.Workloads.label;
          Printf.printf "stack               : %s\n" (RC.to_string cfg);
          print_string (Owp_core.Serve_report.summary report);
          List.iter (Printf.printf "failed engine run   : %s\n") out.P.failures;
          exit_code out)

let serve_cmd =
  let arrivals =
    Arg.(
      value
      & opt arrivals_conv Owp_serve.Arrivals.default
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Seeded arrival process: $(i,RATE[:FIELD=V,...]) with fields \
             $(i,join)/$(i,leave)/$(i,repref)/$(i,query) (mix weights), \
             $(i,horizon), $(i,queue) (backlog bound before shedding), \
             $(i,oracle) (LIC sampling period) and $(i,warmup); e.g. \
             $(b,4:query=3,horizon=300).  All times are virtual.")
  in
  let handicap =
    Arg.(
      value & opt float 0.0
      & info [ "handicap" ] ~docv:"T"
          ~doc:
            "Add T virtual-time units to every request's service time — a \
             synthetic latency regression for exercising the serve gate.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Drive the composed stack with a sustained request stream"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a long-lived serving session: a seeded Poisson stream of \
              joins, leaves, re-preference events and satisfaction queries \
              against the standing overlay.  Mutations are serviced by \
              re-running the configured engine composition on the current \
              membership; queries cost one propose-answer round.  The report \
              carries latency percentiles (p50/p99), throughput, the backlog \
              peak, shedding counts, and steady-state satisfaction against a \
              periodically sampled from-scratch LIC oracle.  Identical flags \
              and seed reproduce the report byte for byte.";
           `P
             "Exit status 0 when every engine run in the session passed — \
              the bootstrap run and each mutation, judged like $(b,owp run) \
              — and 1 otherwise, with one $(i,failed engine run) line per \
              failing run.";
         ])
    Term.(const serve_session $ Owp_cli.term $ arrivals $ handicap)

(* ------------------------------------------------------------------ *)
(* verify                                                               *)
(* ------------------------------------------------------------------ *)

let verify graph_file matching_file quota =
  match Graph_io.read graph_file with
  | Error msg -> usage_error "verify" (graph_file ^ ": " ^ msg)
  | Ok g -> (
      match Graph_io.read_matching g matching_file with
      | Error msg -> usage_error "verify" (matching_file ^ ": " ^ msg)
      | Ok ids -> (
          let capacity = Array.make (Graph.node_count g) quota in
          match Owp_matching.Bmatching.of_edge_ids g ~capacity ids with
          | m ->
              Printf.printf "valid b-matching    : yes (%d edges, quota %d)\n"
                (Owp_matching.Bmatching.size m) quota;
              Printf.printf "maximal             : %b\n"
                (Owp_matching.Bmatching.is_maximal m);
              0
          | exception Invalid_argument msg ->
              Printf.eprintf "INVALID matching: %s\n" msg;
              1))

let verify_cmd =
  let graph_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"Edge-list file.")
  in
  let matching_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"MATCHING" ~doc:"Saved matching (from run --save).")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Validate a saved matching against a graph")
    Term.(const verify $ graph_file $ matching_file $ Owp_cli.quota_arg)

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

module Checker = Owp_check.Checker
module Explore = Owp_check.Explore

let check_explore inst max_configs max_link_failures =
  let g = inst.Owp_bench.Workloads.graph in
  let n = Graph.node_count g in
  if n > 8 then begin
    Printf.eprintf
      "check --explore enumerates every FIFO schedule; instances must have n <= 8 \
       (got n = %d)\n"
      n;
    2
  end
  else begin
    let w = inst.Owp_bench.Workloads.weights in
    let capacity = inst.Owp_bench.Workloads.capacity in
    let verdict =
      Explore.explore ~max_configs ~max_link_failures (Owp_core.Lid.model w ~capacity)
    in
    Format.printf "%a" Explore.pp_verdict verdict;
    if max_link_failures = 0 then begin
      let lic = Owp_matching.Bmatching.edge_ids (Owp_core.Lic_indexed.run w ~capacity) in
      let lemma6 =
        match verdict.Explore.observations with [ obs ] -> obs = lic | _ -> false
      in
      Printf.printf "agrees with LIC    : %b (Lemma 6)\n" lemma6;
      if Explore.ok verdict && lemma6 then 0 else 1
    end
    else begin
      (* the adversary kills links, so the surviving edge set is
         schedule-dependent by design: only Lemma 5 is universally
         quantified here *)
      Printf.printf
        "adversarial drops  : up to %d link failure(s) interleaved everywhere; \
         termination holds on every schedule: %b\n"
        max_link_failures (Explore.ok verdict);
      if Explore.ok verdict then 0 else 1
    end
  end

(* one listing format shared by `check --list` and `lint --list`:
   sections of name/doc rows *)
let print_listing sections =
  List.iter
    (fun (header, rows) ->
      print_endline header;
      List.iter (fun (name, doc) -> Printf.printf "  %-22s %s\n" name doc) rows)
    sections;
  0

(* check --list: every diagnostic the suite can run, with one-line docs *)
let check_list () =
  print_listing
    [
      ( "structural checkers (owp check, owp check --matching):",
        List.map
          (fun c -> (c.Owp_check.Checker.name, c.Owp_check.Checker.doc))
          Owp_check.Checker.all );
      ( "interleaving explorer (owp check --explore):",
        [
          ("explore-termination", "every FIFO schedule quiesces (Lemma 5)");
          ("explore-divergence", "the locked edge set is schedule-independent (Lemma 6)");
          ("explore-truncated", "the state-space bound was hit before exhaustion");
        ] );
      ( "byzantine runs (owp check --byzantine, --explore --byzantine):",
        [ (Owp_check.Byzantine.name, Owp_check.Byzantine.doc) ] );
    ]

(* check --explore --byzantine: model-check the bounded-damage claim
   with one Byzantine node, quantified over every node choice, every
   injection interleaving, and every delivery order *)
let check_explore_byzantine inst ~guard max_configs =
  let n = Graph.node_count inst.Owp_bench.Workloads.graph in
  if n > 4 then begin
    Printf.eprintf
      "check --explore --byzantine enumerates every schedule x injection \
       interleaving; instances must have n <= 4 (got n = %d)\n"
      n;
    2
  end
  else begin
    let prefs = inst.Owp_bench.Workloads.prefs in
    let failed = ref 0 in
    for byz = 0 to n - 1 do
      let verdict = Owp_core.Stack.verify_exhaustively ~guard ~max_configs ~byz prefs in
      let nv = List.length verdict.Explore.violations in
      Printf.printf
        "byzantine node %d    : %d configuration(s), %d schedule(s), %d violation(s)\n"
        byz verdict.Explore.stats.Explore.configurations
        verdict.Explore.stats.Explore.schedules nv;
      if nv > 0 then begin
        incr failed;
        Format.printf "%a@." Owp_check.Violation.pp_list verdict.Explore.violations
      end
    done;
    Printf.printf "bounded damage      : %s (guard %s)\n"
      (if !failed = 0 then "certified on every interleaving" else "VIOLATED")
      (if guard then "on" else "off");
    if !failed = 0 then 0 else 1
  end

let print_check_report inst report =
  Printf.printf "instance            : %s\n" inst.Owp_bench.Workloads.label;
  print_string (Checker.report_to_string report);
  if Checker.ok report then print_endline "all invariants hold"
  else Printf.printf "%d invariant violation(s)\n" (Checker.violation_count report)

let check_cmdline spec matching_file explore max_configs drops list =
  if list then check_list ()
  else
    match Owp_cli.instance spec with
    | Error msg -> usage_error "check" msg
    | Ok inst ->
      if explore && spec.Owp_cli.byzantine <> None then
        check_explore_byzantine inst ~guard:spec.Owp_cli.guard max_configs
      else if explore then check_explore inst max_configs drops
      else
        match matching_file with
        | Some path -> (
            (* check a saved (possibly corrupted) matching against the
               deterministically rebuilt instance *)
            match Graph_io.read_matching inst.Owp_bench.Workloads.graph path with
            | Error msg -> usage_error "check" (path ^ ": " ^ msg)
            | Ok edges ->
                let report =
                  Checker.run
                    (Checker.instance
                       ~prefs:inst.Owp_bench.Workloads.prefs
                       inst.Owp_bench.Workloads.weights
                       ~capacity:inst.Owp_bench.Workloads.capacity ~edges)
                in
                print_check_report inst report;
                if Checker.ok report then 0 else 1)
        | None -> begin
            (* run the configured engine with the checkers armed; the
               exit code is the run's verdict, which also fails a
               distributed run that never quiesced even when the locked
               subset satisfies the structural invariants *)
            match Owp_cli.config ~check:true spec with
            | Error msg -> usage_error "check" msg
            | Ok cfg ->
                let out = P.run_config cfg inst.Owp_bench.Workloads.prefs in
                (match out.P.quiesced with
                | Some q -> Printf.printf "converged           : %b\n" q
                | None -> ());
                (match out.P.detail with
                | P.Stack { Owp_core.Stack.damage = _ :: _ as damage; _ } ->
                    Printf.printf "bounded damage      : %d violation(s)\n"
                      (List.length damage);
                    Format.printf "%a@." Owp_check.Violation.pp_list damage
                | _ -> ());
                print_anytime_certificate out;
                print_stabilize_certificate out;
                print_check_report inst (Option.get out.P.check_report);
                exit_code out
          end

let check_cmd =
  let matching_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "matching" ] ~docv:"FILE"
          ~doc:
            "Check a saved matching (from run --save) instead of a fresh algorithm \
             run; the instance is rebuilt from the same $(b,--seed)/$(b,--family)/\
             $(b,--n)/$(b,--quota)/$(b,--prefs) flags (or $(b,--graph)).")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "Exhaustively enumerate every per-link FIFO message schedule of the LID \
             protocol on the instance (n <= 8) and verify termination (Lemma 5) and \
             schedule-independence of the locked edge set (Lemma 6).")
  in
  let max_configs =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-configs" ] ~docv:"K"
          ~doc:"State-space bound for --explore; the search reports truncation.")
  in
  let drops =
    Arg.(
      value & opt int 0
      & info [ "drops" ] ~docv:"K"
          ~doc:
            "With --explore: adversarial link-failure budget.  The explorer \
             interleaves up to K permanent link failures (in-flight messages die, \
             both endpoints run the transport's give-up recovery) with every \
             delivery order, and demands termination on all of them (Lemma 5 under \
             failures).")
  in
  let list =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List every registered checker with its one-line description and exit.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the structural invariant checkers or the interleaving explorer")
    Term.(
      const check_cmdline $ Owp_cli.term $ matching_file $ explore $ max_configs
      $ drops $ list)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

(* the typedtree analyzer: reads the .cmt files dune already emitted,
   so a plain `dune build` is the only prerequisite *)
let default_lint_roots =
  [ "_build/default/lib"; "_build/default/bin" ]

let lint_list () =
  print_listing
    [
      ( "typedtree lint rules (owp lint, owp lint --rule NAME):",
        List.map
          (fun r -> (r.Owp_lint.Rule.name, r.Owp_lint.Rule.doc))
          Owp_lint.Registry.all );
    ]

let lint_cmdline json list rules roots =
  if list then lint_list ()
  else begin
    let roots =
      match roots with
      | [] ->
          let existing = List.filter Sys.file_exists default_lint_roots in
          if existing = [] then default_lint_roots else existing
      | rs -> rs
    in
    let only = match rules with [] -> None | rs -> Some rs in
    match Owp_lint.Driver.run ?only ~roots () with
    | Error msg ->
        Printf.eprintf "lint: %s\n" msg;
        2
    | Ok r ->
        if json then print_endline (Owp_lint.Driver.to_json r)
        else Format.printf "%a" Owp_lint.Driver.pp_human r;
        if r.Owp_lint.Driver.findings = [] then 0 else 1
  end

let lint_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as one JSON object instead of compiler-style lines.")
  in
  let list =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List every registered rule with its one-line description and exit.")
  in
  let rules =
    Arg.(
      value
      & opt_all string []
      & info [ "rule" ] ~docv:"NAME"
          ~doc:"Run only the named rule (repeatable); default is every rule.")
  in
  let roots =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ROOT"
          ~doc:
            "Directories to scan for .cmt files; defaults to \
             _build/default/{lib,bin}.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis over the typedtrees dune emits (.cmt files)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the repo's rule registry (purity of the protocol core, \
              iteration-order determinism, clock hygiene, seeded randomness, \
              float and generic comparison discipline, tuple hash keys, the \
              single-state-machine property, and layer conformance) over the \
              typed ASTs produced by $(b,dune build).  Exit status is 1 when \
              unsuppressed findings remain, 2 on usage or scan errors.";
           `P
             "Findings are suppressed in source with \
              (* owp-lint: allow RULE — reason *) on the offending line or the \
              line above; (* owp-lint: pure *) opts a module into the \
              pure-core rule.";
         ])
    Term.(const lint_cmdline $ json $ list $ rules $ roots)

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)
(* ------------------------------------------------------------------ *)

(* the chaos fuzzer: seeded random fault schedules thrown at the
   configured stack composition, demanding the self-stabilization
   certificate from every run; the first failure is shrunk
   delta-debugging-style to a minimal --schedule reproducer and the
   exit status is the verdict *)
let chaos spec trials max_episodes horizon from_spec =
  let module Chaos = Owp_bench.Chaos in
  let seed = spec.Owp_cli.seed in
  if not (Schedule.is_empty spec.Owp_cli.schedule) then begin
    Printf.eprintf
      "chaos: generates its own schedules; use --from SPEC to replay one\n";
    2
  end
  else if spec.Owp_cli.deadline <> None || spec.Owp_cli.max_rounds <> None then begin
    Printf.eprintf
      "chaos: the self-stabilization certificate needs unbudgeted runs; drop \
       --deadline/--max-rounds\n";
    2
  end
  else if not (RC.lid_family spec.Owp_cli.engine) then begin
    Printf.eprintf
      "chaos: fault schedules need the protocol stack; engine %s has no \
       protocol run\n"
      (RC.engine_name spec.Owp_cli.engine);
    2
  end
  else
  match setup spec with
  | Error msg -> usage_error "chaos" msg
  | Ok (cfg, inst) -> begin
      let prefs = inst.Owp_bench.Workloads.prefs in
      Printf.printf "instance            : %s\n" inst.Owp_bench.Workloads.label;
      Printf.printf "stack               : %s\n" (RC.to_string cfg);
      let fails s = not (Chaos.run_one cfg prefs s).Chaos.passed in
      let report_failure ~origin ~sched ~shrunk =
        let r = Chaos.run_one cfg prefs shrunk in
        Printf.printf "chaos               : FAIL (%s)\n" origin;
        Printf.printf "failing schedule    : %s\n" (Schedule.to_string sched);
        Printf.printf "shrunk reproducer   : %s (%d episode(s))\n"
          (Schedule.to_string shrunk) (List.length shrunk);
        Option.iter print_string r.Chaos.certificate;
        Printf.printf
          "reproduce with      : owp run <same instance/stack flags> --schedule '%s'\n"
          (Schedule.to_string shrunk);
        1
      in
      match from_spec with
      | Some sched ->
          if Schedule.is_empty sched then begin
            Printf.eprintf "chaos: --from needs a non-empty schedule\n";
            2
          end
          else begin
            let r = Chaos.run_one cfg prefs sched in
            Printf.printf "schedule            : %s\n" r.Chaos.summary;
            if r.Chaos.passed then begin
              Option.iter print_string r.Chaos.certificate;
              print_endline "chaos               : PASS (schedule certifies)";
              0
            end
            else report_failure ~origin:"--from" ~sched ~shrunk:(Chaos.shrink ~fails sched)
          end
      | None -> (
          let rep = Chaos.fuzz ~trials ~max_episodes ~horizon ~seed cfg prefs in
          match rep.Chaos.failure with
          | None ->
              Printf.printf "chaos               : PASS (%d seeded trial(s) certified)\n"
                rep.Chaos.trials_run;
              0
          | Some (i, sched, shrunk) ->
              report_failure
                ~origin:(Printf.sprintf "trial %d of %d, seed %d" (i + 1) trials seed)
                ~sched ~shrunk)
    end

let chaos_cmd =
  let trials =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"K"
          ~doc:"Seeded random schedules to try (deterministic per --seed).")
  in
  let max_episodes =
    Arg.(
      value & opt int 4
      & info [ "max-episodes" ] ~docv:"K" ~doc:"Episodes per generated schedule (1..K).")
  in
  let horizon =
    Arg.(
      value & opt float 12.0
      & info [ "horizon" ] ~docv:"T"
          ~doc:"Virtual-time window the generated episodes live in.")
  in
  let from_spec =
    Arg.(
      value
      & opt (some Owp_cli.schedule_conv) None
      & info [ "from" ] ~docv:"SPEC"
          ~doc:
            "Skip generation: run (and on failure shrink) this one schedule — the \
             regression mode CI uses for known-bad fixtures.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fuzz the stack with random fault schedules; shrink failures to minimal reproducers"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates seeded random fault schedules (partitions, link outages, \
              flapping, loss bursts, crash-restarts), runs the configured stack \
              composition under each, and demands the self-stabilization \
              certificate: after the last episode heals, the run must quiesce on \
              the crash-only LIC edge set.  On the first failure the schedule is \
              shrunk delta-debugging-style — dropping episodes, halving durations, \
              merging partition blocks, thinning link lists — to a minimal \
              reproducer that still fails, printed as a $(b,--schedule) spec.  \
              Exit status 0 when every trial certifies, 1 with a reproducer \
              otherwise.";
           `P
             "Note that a partition heals but a datagram loses what it dropped: \
              without $(b,--reliable) most non-trivial schedules genuinely break \
              convergence, which makes an unreliable stack the natural known-bad \
              fixture and the ARQ stack the certifying one.";
         ])
    Term.(const chaos $ Owp_cli.term $ trials $ max_episodes $ horizon $ from_spec)

(* ------------------------------------------------------------------ *)
(* bench                                                                *)
(* ------------------------------------------------------------------ *)

(* bench --deadline T: the anytime smoke gate.  A trimmed E25 preset —
   budgeted runs up to T must all certify (feasible + prefix of the
   full run) and satisfaction must be monotone in the budget on the
   fixed seed. *)
let bench_anytime_gate d =
  if d <= 0.0 then begin
    Printf.eprintf "bench: --deadline %g: the budget is a positive virtual-time horizon\n" d;
    2
  end
  else begin
    let module E25 = Owp_bench.E25_deadline in
    let s = E25.smoke ~deadline:d () in
    List.iter
      (fun (p : Owp_bench.Anytime_curves.point) ->
        Printf.printf
          "  budget %6.2f     : %5.1f%% of full-run satisfaction, %d blocking \
           pair(s), %d link(s)%s\n"
          p.Owp_bench.Anytime_curves.budget
          (100.0 *. p.Owp_bench.Anytime_curves.retained)
          p.Owp_bench.Anytime_curves.blocking_pairs
          p.Owp_bench.Anytime_curves.served_edges
          (if p.Owp_bench.Anytime_curves.certified then "" else "  [VOID]"))
      s.E25.curve;
    Printf.printf "anytime gate        : certified %b, monotone %b\n" s.E25.certified
      s.E25.monotone;
    if s.E25.certified && s.E25.monotone then begin
      print_endline "anytime gate        : PASS";
      0
    end
    else begin
      print_endline "anytime gate        : FAIL";
      1
    end
  end

(* bench --gate: the CI regression gate.  Two presets back to back: the
   E23 scale smoke (indexed engine vs reference) and the E27 serve
   smoke (latency percentiles and steady satisfaction of a short
   sustained-traffic session against fixed bounds).  --inject plants a
   known regression — extra per-request latency or unguarded liars —
   so CI can check the gate actually trips. *)
let bench_gate ~inject spec =
  let s = Owp_bench.E23_scale.smoke () in
  Printf.printf "scale gate          : reference %.2f ms, indexed %.2f ms (%.1fx)\n"
    s.Owp_bench.E23_scale.reference_ms s.Owp_bench.E23_scale.indexed_ms
    (if s.Owp_bench.E23_scale.indexed_ms <= 0.0 then infinity
     else s.Owp_bench.E23_scale.reference_ms /. s.Owp_bench.E23_scale.indexed_ms);
  Printf.printf "identical edge sets : %b\n" s.Owp_bench.E23_scale.identical;
  let scale_ok =
    s.Owp_bench.E23_scale.identical
    && s.Owp_bench.E23_scale.indexed_ms <= s.Owp_bench.E23_scale.reference_ms
  in
  (* the serve gate's stack comes from the shared bundle (default:
     plain LID), so a CI job can gate any composition *)
  let spec =
    match inject with
    | Some `Quality ->
        { spec with Owp_cli.byzantine = Some "liar:0.3"; guard = false }
    | _ -> spec
  in
  let handicap =
    match inject with Some `Latency -> Owp_bench.E27_serve.latency_injection | _ -> 0.0
  in
  match Owp_cli.config spec with
  | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      2
  | Ok cfg -> (
      match Owp_bench.E27_serve.gate ~handicap ~cfg () with
      | Error msg ->
          Printf.eprintf "bench: serve gate: %s\n" msg;
          2
      | Ok g ->
          let module E27 = Owp_bench.E27_serve in
          Printf.printf
            "serve gate          : p50 %.2f, p99 %.2f (bound %.2f), steady %.4f \
             (bound %.4f)\n"
            g.E27.p50 g.E27.p99 g.E27.p99_bound g.E27.steady g.E27.steady_bound;
          Printf.printf "serve deterministic : %b\n" g.E27.deterministic;
          if scale_ok && g.E27.passed then begin
            print_endline "bench gate          : PASS";
            0
          end
          else begin
            print_endline "bench gate          : FAIL";
            1
          end)

let bench quick json_dir gate inject spec ids =
  (* measured walls, so trade memory for GC quiet: a 2M-word minor heap
     keeps the delivery loop's survivors out of repeated minor
     collections, and a relaxed space overhead stops the major GC from
     dominating the matching-extraction phase at the 10^5+ sizes *)
  Gc.set { (Gc.get ()) with minor_heap_size = 2_097_152; space_overhead = 200 };
  match spec.Owp_cli.deadline with
  | Some d -> bench_anytime_gate d
  | None ->
  if gate then bench_gate ~inject spec
  else begin
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      json_dir;
    let out = Format.std_formatter in
    match ids with
    | [] ->
        Owp_bench.Experiments.run_all ~quick ?json_dir ~out ();
        0
    | ids ->
        if List.for_all (Owp_bench.Experiments.run_one ~quick ?json_dir ~out) ids then 0
        else begin
          prerr_endline "unknown experiment id (see `owp list`)";
          2
        end
  end

let bench_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Trimmed sweeps.") in
  let json_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:"Also write each experiment's tables as DIR/BENCH_<id>.json.")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "CI regression gate: run the small E23 preset (indexed engine must \
             match the reference edge set and be at least as fast) and the E27 \
             serve preset (p99 latency and steady-state satisfaction of a short \
             sustained-traffic session against fixed bounds, byte-identical \
             across repeats).")
  in
  let inject =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("latency", `Latency); ("quality", `Quality) ]))
          None
      & info [ "inject" ] ~docv:"KIND"
          ~doc:
            "With $(b,--gate): plant a known regression and expect the gate \
             to FAIL (the CI self-test that the gate can trip) — $(i,latency) \
             adds a per-request service handicap, $(i,quality) swaps in \
             unguarded liars.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids; all when omitted.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run experiments with the scale knobs: --json, --gate, --deadline")
    Term.(
      const bench $ quick $ json_dir $ gate $ inject $ Owp_cli.term $ ids)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available experiments")
    Term.(
      const (fun () ->
          List.iter
            (fun e ->
              Printf.printf "%-4s %-45s [%s]\n" e.Owp_bench.Exp_common.id
                e.Owp_bench.Exp_common.title e.Owp_bench.Exp_common.paper_ref)
            Owp_bench.Experiments.all;
          0)
      $ const ())

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "owp" ~version:"1.0.0"
       ~doc:"Overlays with preferences: satisfaction-maximising b-matching (IPDPS 2010)")
    [
      generate_cmd;
      stats_cmd;
      run_cmd;
      serve_cmd;
      verify_cmd;
      check_cmd;
      chaos_cmd;
      lint_cmd;
      bench_cmd;
      list_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
