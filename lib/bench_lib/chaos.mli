(** Chaos engine: randomized fault schedules, run through the full
    stack composition, with delta-debugging shrinking of failures.

    [owp chaos] is a property test over network weather: generate a
    seeded random {!Owp_simnet.Schedule.t} against an instance, run the
    configured composition (faults, transport, adversaries, guard —
    whatever the {!Owp_core.Run_config.t} says), and demand the
    {!Owp_check.Stabilize} certificate.  When a schedule breaks the
    certificate, the interesting artifact is not the failure but the
    {e smallest} failure: {!shrink} minimizes the schedule
    delta-debugging-style — drop whole episodes, halve durations, merge
    partition blocks, thin link and node lists — re-running the
    composition at each step, until a fixpoint no single reduction
    escapes.  The result prints as a [--schedule] spec, ready to
    reproduce with [owp run]. *)

type result = {
  passed : bool;
      (** the run's verdict: [true] exactly when the outcome's
          {!Owp_core.Pipeline.outcome.failures} is empty (so the
          stabilization certificate gates adversary-free, unbudgeted
          configs, and the damage audit gates adversarial ones) *)
  summary : string;  (** one line: gate verdicts and recovery time *)
  certificate : string option;
      (** rendered stabilization certificate, when the run produced one *)
}

val run_one : Owp_core.Run_config.t -> Preference.t -> Owp_simnet.Schedule.t -> result
(** Run the config's composition with its schedule replaced by the
    given one. *)

(* owp-lint: allow dead-export — test seam: drives run_one with fuzzer input *)
val generate :
  Owp_util.Prng.t ->
  graph:Graph.t ->
  horizon:float ->
  max_episodes:int ->
  Owp_simnet.Schedule.t
(** A random valid schedule: 1..[max_episodes] episodes of random kind
    (partition, link-down, flap, burst, down) over random sub-intervals
    of [[0, horizon]]; links are sampled from the graph's edges so
    episodes bite, and down victims are kept disjoint so the schedule
    validates. *)

val shrink :
  fails:(Owp_simnet.Schedule.t -> bool) -> Owp_simnet.Schedule.t -> Owp_simnet.Schedule.t
(** Precondition: [fails s].  Returns a schedule that still fails and
    from which no single episode drop, duration halving, block merge or
    list thinning yields a failing schedule (or the budget of 200
    re-runs ran out).  Every candidate is checked with [fails]
    before being adopted, so the result is always a true reproducer. *)

type fuzz_report = {
  trials_run : int;
  failure : (int * Owp_simnet.Schedule.t * Owp_simnet.Schedule.t) option;
      (** [(trial index, original schedule, shrunk reproducer)] of the
          first failing trial; [None] when every trial certified *)
}

val fuzz :
  ?trials:int ->
  ?max_episodes:int ->
  ?horizon:float ->
  seed:int ->
  Owp_core.Run_config.t ->
  Preference.t ->
  fuzz_report
(** The fuzz loop: [trials] (default 20) generated schedules (seeded,
    deterministic), stopping at the first failure and shrinking it. *)
