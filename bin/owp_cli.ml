(* The one term bundle behind every owp subcommand that runs the stack.

   `run`, `check`, `chaos`, `bench` and `serve` all face the same
   composition surface: an instance (seed/family/n/quota/prefs or an
   edge-list file) and a stack selection (engine, faults, schedule,
   ARQ, Byzantine spec, guard, anytime budget).  Before this module
   each subcommand copied the cmdliner declarations by hand and the
   help text drifted; now there is exactly one declaration of each
   flag, one instance builder, and one path from flags to a validated
   Run_config.t — a new subcommand inherits the whole composition by
   including [term] in its cmdliner expression. *)

open Cmdliner
module RC = Owp_core.Run_config
module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule

(* ------------------------------------------------------------------ *)
(* instance arguments                                                   *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let n_arg =
  Arg.(value & opt int 1000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of peers.")

let quota_arg =
  Arg.(value & opt int 3 & info [ "b"; "quota" ] ~docv:"B" ~doc:"Connection quota per peer.")

let family_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Owp_bench.Workloads.family_of_string s) in
  let print ppf f = Format.pp_print_string ppf (Owp_bench.Workloads.family_name f) in
  Arg.conv (parse, print)

let family_arg =
  Arg.(
    value
    & opt family_conv (Owp_bench.Workloads.Gnm_avg_deg 8.0)
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Graph family: gnp:P, deg:D (G(n,m) with average degree D), ba:M, ws:K:BETA, \
           geo:R, torus, pl:EXP:MINDEG.")

let model_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Owp_bench.Workloads.pref_model_of_string s)
  in
  let print ppf m = Format.pp_print_string ppf (Owp_bench.Workloads.pref_model_name m) in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    value
    & opt model_conv Owp_bench.Workloads.Random_prefs
    & info [ "prefs" ] ~docv:"MODEL"
        ~doc:"Preference model: random, latency, bandwidth, transactions, interest:D.")

let graph_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE" ~doc:"Use an edge-list file instead of generating.")

(* ------------------------------------------------------------------ *)
(* stack arguments                                                      *)
(* ------------------------------------------------------------------ *)

let engine_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (RC.engine_of_string s) in
  let print ppf e = Format.pp_print_string ppf (RC.engine_name e) in
  Arg.conv (parse, print)

let faults_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Faults.of_string s) in
  Arg.conv (parse, Faults.pp)

let schedule_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Schedule.of_string s) in
  Arg.conv (parse, Schedule.pp)

let engine_arg =
  Arg.(
    value & opt engine_conv RC.Lid
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Selection engine: lic (Algorithm 2 over per-node max-weight edge \
           indexes), lid (Algorithm 1 on the simulated network), lid-reliable \
           (lid with $(b,--reliable)), dynamics (blocking-pair dynamics).  \
           $(b,--reliable), $(b,--faults), $(b,--byzantine) and $(b,--guard) \
           select middleware layers under a LID engine, not engines.")

let faults_arg =
  Arg.(
    value & opt faults_conv Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault environment as one spec: comma-separated $(i,drop=P), \
           $(i,dup=P), $(i,reorder=P), $(i,crash=F), $(i,patience=T) and the \
           bare flags $(i,unordered)/$(i,fifo); e.g. \
           $(b,drop=0.2,dup=0.1,unordered).")

let schedule_arg =
  Arg.(
    value & opt schedule_conv Schedule.empty
    & info [ "schedule" ] ~docv:"SPEC"
        ~doc:
          "Time-varying fault episodes layered over $(b,--faults): \
           semicolon-separated $(i,KIND:...@T0-T1) episodes with kinds \
           $(i,part) (node groups joined by $(b,.), separated by $(b,|); \
           unlisted nodes form the implicit rest-block), $(i,link) (links \
           $(i,U.V) down), $(i,flap:LINKS:PERIOD:DUTY), $(i,burst:P) \
           (global loss), and $(i,down:NODES) (crash at T0, amnesiac \
           restart at T1); e.g. $(b,'part:0.1.2@2-6;burst:0.9@8-9').  A \
           non-empty schedule arms the self-stabilization certificate: \
           after the last episode heals the run must quiesce on the \
           crash-only LIC edge set.")

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "Run LID over the reliable transport (per-link sequence numbers, cumulative \
           ACKs, retransmission with backoff) so the protocol converges despite \
           the loss, duplication, reordering and crashes of $(b,--faults).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"T"
        ~doc:
          "Anytime budget: halt message delivery at virtual time T, freeze the \
           feasible partial matching (mutually locked links kept, tentative \
           proposals released on both sides) and report a certified anytime \
           outcome instead of running to quiescence.  Composes with every \
           other layer flag; give either this or $(b,--max-rounds), not both.  \
           ($(b,owp bench) reads it as the anytime smoke-gate budget; \
           $(b,owp serve) applies it per request.)")

let max_rounds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rounds" ] ~docv:"K"
        ~doc:
          "Anytime budget as a round count: K propose-answer rounds, converted \
           to a virtual-time deadline through the delay model's round length.  \
           Give either this or $(b,--deadline), not both.")

let byzantine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "byzantine" ] ~docv:"SPEC"
        ~doc:
          "Hand a random node subset to adversary behaviours: \
           $(i,MODEL:FRAC[,MODEL:FRAC...]) with models liar, equivocator, \
           flooder, replayer, violator (e.g. $(b,liar:0.2)).  Runs LID with \
           the remaining correct peers and reports the bounded-damage verdict.")

let guard_arg =
  Arg.(
    value & flag
    & info [ "guard" ]
        ~doc:
          "Enable the inbound protocol guard: advert vetting against the \
           public 1/b weight bound, per-link state-machine validation, \
           flood limits, and quarantine of offenders (with $(b,--byzantine); \
           without it the run is the vulnerable baseline).")

(* ------------------------------------------------------------------ *)
(* the bundle                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  seed : int;
  family : Owp_bench.Workloads.family;
  n : int;
  quota : int;
  model : Owp_bench.Workloads.pref_model;
  graph_file : string option;
  engine : RC.engine;
  reliable : bool;
  faults : Faults.t;
  schedule : Schedule.t;
  deadline : float option;
  max_rounds : int option;
  byzantine : string option;
  guard : bool;
}

let make seed family n quota model graph_file engine reliable faults schedule
    deadline max_rounds byzantine guard =
  {
    seed;
    family;
    n;
    quota;
    model;
    graph_file;
    engine;
    reliable;
    faults;
    schedule;
    deadline;
    max_rounds;
    byzantine;
    guard;
  }

let term =
  Term.(
    const make $ seed_arg $ family_arg $ n_arg $ quota_arg $ model_arg $ graph_arg
    $ engine_arg $ reliable_arg $ faults_arg $ schedule_arg $ deadline_arg
    $ max_rounds_arg $ byzantine_arg $ guard_arg)

(* the instance is rebuilt deterministically from
   (seed, family, n, quota, model) or from an edge-list file, so a
   matching saved by `run` can be re-checked later with the same
   flags; [Error] when the family cannot build a graph on n nodes,
   the file is not an edge list, or the adversary spec leaves no
   correct node among the instance's nodes *)
let instance t =
  let built =
    match t.graph_file with
    | Some path -> (
        match Graph_io.read path with
        | Ok g ->
            Ok
              (Owp_bench.Workloads.of_graph ~seed:t.seed ~pref_model:t.model
                 ~quota:t.quota ~label:path g)
        | Error msg -> Error (path ^ ": " ^ msg))
    | None ->
        Result.map
          (fun () ->
            Owp_bench.Workloads.make ~seed:t.seed ~family:t.family ~pref_model:t.model
              ~n:t.n ~quota:t.quota)
          (Owp_bench.Workloads.fits t.family ~n:t.n)
  in
  match (built, t.byzantine) with
  | Error _, _ | Ok _, None -> built
  | Ok inst, Some spec -> (
      let n = Graph.node_count inst.Owp_bench.Workloads.graph in
      match Owp_simnet.Adversary.count ~n (Owp_simnet.Adversary.parse_spec spec) with
      | k when k < n -> built
      | k ->
          Error
            (Printf.sprintf "--byzantine %s: %d adversaries leave no correct node among %d"
               spec k n)
      | exception Invalid_argument msg -> Error msg)

let config ?(check = false) t =
  RC.validate
    (RC.make ~engine:t.engine ~seed:t.seed ~faults:t.faults ~schedule:t.schedule
       ~reliable:t.reliable ?byzantine:t.byzantine ~guard:t.guard
       ?deadline:t.deadline ?max_rounds:t.max_rounds ~check ())
