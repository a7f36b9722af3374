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
     owp bench       regenerate experiment tables (the 20 in `owp list`)
                     and judge their claims: --quick, --json
     owp list        list available experiments

   Every stack-running subcommand (`run`, `serve`, `check`, `chaos`)
   shares the one Owp_cli term bundle: the same instance and
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
        (if Float.equal reference 0.0 then 100.0 else 100.0 *. retained /. reference);
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
let serve_session spec arrivals =
  match setup spec with
  | Error msg -> usage_error "serve" msg
  | Ok (cfg, inst) -> (
      match
        Owp_serve.Serve.run ~arrivals cfg inst.Owp_bench.Workloads.prefs
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
    Term.(const serve_session $ Owp_cli.term $ arrivals)

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

(* what check --explore --byzantine injects, whatever the spec says *)
let explore_adversary_model =
  "each node in turn is one generic injector; MODEL:FRAC is not used under --explore"

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
        [
          (Owp_check.Byzantine.name, Owp_check.Byzantine.doc);
          ("adversary model", explore_adversary_model);
        ] );
    ]

(* check --explore --byzantine: model-check the bounded-damage claim
   with one Byzantine node, quantified over every node choice, every
   injection interleaving, and every delivery order.  The spec's models
   and fractions play no part: the injector covers every wire attack
   they express, so the report says so before anything else. *)
let check_explore_byzantine inst ~spec ~guard max_configs =
  let n = Graph.node_count inst.Owp_bench.Workloads.graph in
  if n > 4 then begin
    Printf.eprintf
      "check --explore --byzantine enumerates every schedule x injection \
       interleaving; instances must have n <= 4 (got n = %d)\n"
      n;
    2
  end
  else begin
    Printf.printf "adversary model     : %s (got --byzantine %s)\n"
      explore_adversary_model spec;
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

(* the stack flags that --matching (no engine runs) or --explore (the
   bare protocol model, one generic injector under --byzantine) would
   ignore, one usage line each *)
let check_unused_flags (spec : Owp_cli.t) ~explore ~matching =
  let unused flag =
    Printf.sprintf "%s: not used with %s" flag (if explore then "--explore" else "--matching")
  in
  let byz = Option.is_some spec.byzantine in
  List.filter_map
    (fun (set, msg) -> if set then Some msg else None)
    [
      ((match spec.engine with RC.Lid -> false | _ -> true), unused "--engine");
      (spec.reliable, unused "--reliable");
      (not (Faults.equal spec.faults Faults.none), unused "--faults");
      (not (Schedule.is_empty spec.schedule), unused "--schedule");
      (Option.is_some spec.deadline, unused "--deadline");
      (Option.is_some spec.max_rounds, unused "--max-rounds");
      (byz && not explore, unused "--byzantine");
      ( spec.guard && not (explore && byz),
        if explore then "--guard: needs --byzantine under --explore" else unused "--guard" );
      (explore && matching, unused "--matching");
    ]

(* --drops and --max-configs steer the explorer only, and the Byzantine
   explorer arms no link failures: a flag that would be ignored, or
   that is out of range, is a usage error *)
let check_cmdline spec matching_file explore max_configs drops list =
  let flag_error flag k why = usage_error "check" (Printf.sprintf "--%s %d: %s" flag k why) in
  let unused =
    let matching = Option.is_some matching_file in
    if explore || matching then check_unused_flags spec ~explore ~matching else []
  in
  if list then check_list ()
  else
    match (drops, max_configs) with
    | Some k, _ when not explore -> flag_error "drops" k "needs --explore"
    | _, Some k when not explore -> flag_error "max-configs" k "needs --explore"
    | Some k, _ when k < 0 -> flag_error "drops" k "must be >= 0"
    | _, Some k when k < 1 -> flag_error "max-configs" k "must be >= 1"
    | Some k, _ when k > 0 && Option.is_some spec.Owp_cli.byzantine ->
        flag_error "drops" k
          "the Byzantine explorer arms no link failures; drop --drops or --byzantine"
    | _ when unused <> [] ->
        List.iter (Printf.eprintf "check: %s\n") unused;
        2
    | _ ->
    let max_configs = Option.value max_configs ~default:2_000_000
    and drops = Option.value drops ~default:0 in
    match Owp_cli.instance spec with
    | Error msg -> usage_error "check" msg
    | Ok inst ->
      match (explore, spec.Owp_cli.byzantine) with
      | true, Some byz ->
          check_explore_byzantine inst ~spec:byz ~guard:spec.Owp_cli.guard max_configs
      | true, None -> check_explore inst max_configs drops
      | false, _ ->
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
      value
      & opt (some int) None
      & info [ "max-configs" ] ~docv:"K"
          ~doc:
            "With --explore: state-space bound (default 2000000); the search \
             reports truncation.")
  in
  let drops =
    Arg.(
      value
      & opt (some int) None
      & info [ "drops" ] ~docv:"K"
          ~doc:
            "With --explore and without $(b,--byzantine): adversarial \
             link-failure budget (default 0).  The explorer \
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
   so `dune build @check` (which also types executables' main modules)
   is the only prerequisite *)
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
              single-state-machine property, layer conformance, and dead \
              exports) over the typed ASTs produced by $(b,dune build @check). \
              Exit status is 1 when unsuppressed findings remain, 2 on usage or \
              scan errors.";
           `P
             "Findings are suppressed in source with \
              (* owp-lint: allow RULE — reason *) on the offending line or the \
              line above (in an .mli, on or above the val); \
              (* owp-lint: pure *) opts a module into the pure-core rule.";
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
  let flag_error flag v why = usage_error "chaos" (Printf.sprintf "--%s %s: %s" flag v why) in
  if not (Float.is_finite horizon && horizon > 0.0) then
    flag_error "horizon" (Printf.sprintf "%g" horizon) "must be finite and positive"
  else if 64.0 *. horizon >= 0x1p53 then
    (* Chaos.generate draws episode bounds on a 1/64 grid *)
    flag_error "horizon" (Printf.sprintf "%g" horizon)
      "the 1/64 schedule grid is exact only below 2^47"
  else if max_episodes < 1 then
    flag_error "max-episodes" (string_of_int max_episodes) "must be >= 1"
  else if trials < 1 then flag_error "trials" (string_of_int trials) "must be >= 1"
  else if not (Schedule.is_empty spec.Owp_cli.schedule) then begin
    Printf.eprintf
      "chaos: generates its own schedules; use --from SPEC to replay one\n";
    2
  end
  else if Option.is_some spec.Owp_cli.deadline || Option.is_some spec.Owp_cli.max_rounds then begin
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
      let print_certificate c = print_string (Owp_check.Stabilize.to_string c) in
      let report_failure ~origin ~sched ~shrunk =
        let r = Chaos.run_one cfg prefs shrunk in
        Printf.printf "chaos               : FAIL (%s)\n" origin;
        Printf.printf "failing schedule    : %s\n" (Schedule.to_string sched);
        Printf.printf "shrunk reproducer   : %s (%d episode(s))\n"
          (Schedule.to_string shrunk) (List.length shrunk);
        Option.iter print_certificate r.Chaos.certificate;
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
              Option.iter print_certificate r.Chaos.certificate;
              print_endline "chaos               : PASS (schedule certifies)";
              0
            end
            else report_failure ~origin:"--from" ~sched ~shrunk:(Chaos.shrink ~fails sched)
          end
      | None -> (
          let rep = Chaos.fuzz ~trials ~max_episodes ~horizon ~seed cfg prefs in
          match rep.Chaos.failure with
          | None ->
              Printf.printf "weather bit         : %d of %d trial(s) cut a message\n"
                rep.Chaos.bitten rep.Chaos.trials_run;
              if rep.Chaos.bitten = 0 then begin
                print_endline
                  "chaos               : VACUOUS (no trial's weather cut a message, so \
                   nothing was tested; lower --horizon)";
                1
              end
              else begin
                Printf.printf "chaos               : PASS (%d seeded trial(s) certified)\n"
                  rep.Chaos.trials_run;
                0
              end
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
              otherwise, and 1 when no trial's weather cut a single message \
              (the batch tested nothing).";
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

let bench quick json_dir ids =
  (* measured walls, so trade memory for GC quiet: a 2M-word minor heap
     keeps the delivery loop's survivors out of repeated minor
     collections, and a relaxed space overhead stops the major GC from
     dominating the matching-extraction phase at the 10^5+ sizes *)
  Gc.set { (Gc.get ()) with minor_heap_size = 2_097_152; space_overhead = 200 };
  (* every argument is checked before the first experiment runs *)
  let module E = Owp_bench.Experiments in
  let unknown = List.filter (fun id -> Option.is_none (E.find id)) ids in
  let json_error dir =
    if Sys.file_exists dir then
      if Sys.is_directory dir then None
      else Some (Printf.sprintf "--json %s: not a directory" dir)
    else
      match Sys.mkdir dir 0o755 with
      | () -> None
      | exception Sys_error msg -> Some ("--json: cannot create " ^ msg)
  in
  if unknown <> [] then begin
    List.iter
      (fun id -> Printf.eprintf "bench: unknown experiment id %s (see `owp list`)\n" id)
      unknown;
    2
  end
  else
    match Option.bind json_dir json_error with
    | Some msg -> usage_error "bench" msg
    | None -> (
        let exps = if ids = [] then E.all else List.filter_map E.find ids in
        match E.run ~quick ?json_dir ~out:Format.std_formatter exps with
        | [] -> 0
        | failed ->
            List.iter
              (fun (id, claim) -> Printf.eprintf "bench: %s claim does not hold: %s\n" id claim)
              failed;
            1)

let bench_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Trimmed sweeps.") in
  let json_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:"Also write each experiment's tables as DIR/BENCH_<id>.json.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids; all when omitted.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run experiments; exit 1 when a claim does not hold")
    Term.(const bench $ quick $ json_dir $ ids)

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
