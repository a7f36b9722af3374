(** High-level entry point: from a preference system to a matched
    overlay.

    This is the API an application uses: it derives the eq. 9 weights,
    runs the engine chosen in a {!Run_config.t} and reports the achieved
    satisfaction together with the guarantee that applies (Theorem 3 for
    LID/LIC).  Callers pick the algorithm via configuration
    ({!Run_config.engine}) instead of importing the per-variant driver
    modules.

    Both LID-family engines dispatch to the one layered
    {!Stack.run} loop: the config's [faults], [reliable], [byzantine]
    and [guard] knobs select middleware layers, in any combination
    {!Run_config.validate} admits, and the protocol diagnostics come
    back as one uniform {!Stack.report} in {!detail}. *)

type engine = Run_config.engine = Lic_indexed | Lid | Lid_reliable | Dynamics
(** Re-export of {!Run_config.engine} so [Pipeline.Lic_indexed] and
    friends are in scope for pipeline users. *)

(** Engine-specific diagnostics the generic outcome cannot carry.  The
    per-driver report variants collapsed with the drivers themselves:
    every protocol run — plain, faulty, reliable, Byzantine, or any
    composition — yields the same {!Stack.report} with its per-layer
    counter table. *)
type detail =
  | Plain  (** centralized engines: no protocol run *)
  | Stack of Stack.report  (** LID-family engines: the stack's report *)

type outcome = {
  engine : engine;  (** what actually ran *)
  matching : Owp_matching.Bmatching.t;
  total_satisfaction : float;  (** Σ_i S_i, eq. 1 *)
  mean_satisfaction : float;  (** over nodes with non-empty lists *)
  total_weight : float;  (** under eq. 9 weights *)
  profile : float array;
      (** per-node S_i (eq. 1) of [matching], the run's one eq. 1 pass:
          the totals above and [Quality.measure] read it *)
  guarantee : float option;
      (** the proven lower bound on the satisfaction ratio vs optimum,
          when the run provably achieves LIC's edge set: ¼(1+1/b_max)
          for LIC and for LID runs with no adversaries, no crashes, no
          anytime budget, and either a clean channel or the transport
          masking it *)
  messages : int option;  (** PROP+REJ for the distributed engines *)
  rounds : float option;
      (** virtual completion time of the protocol run — the
          asynchronous analogue of a round count; [None] for
          centralized engines *)
  wall_ms : float;  (** wall-clock of the engine run, milliseconds *)
  quiesced : bool option;
      (** for the distributed engines, whether every (correct) node
          terminated cleanly (Lemma 5); [None] for engines with no
          protocol run.  [Some false] is a failure (see [failures]).
          A run an anytime budget
          stopped is [Some true] by construction: its deliberately
          partial matching is flagged by the [cutoff] of the
          {!Stack.report} in {!detail} *)
  check_report : Owp_check.Checker.report option;
      (** invariant diagnostics, present when the config asked for
          checking *)
  stabilize : Owp_check.Stabilize.certificate option;
      (** self-stabilization certificate, present exactly when the
          config carries a non-empty fault schedule: the final edge
          set (restricted to participating endpoints) must equal the
          crash-only LIC reference after the last episode heals, with
          the recovery time measured.  The reference relativizes each
          survivor's quota by the slots it irrevocably locked toward
          peers that later crashed — the same move the bounded-damage
          certificate makes for Byzantine peers.  Whether a VOID
          certificate fails the run is decided in [failures] *)
  anytime : Owp_check.Anytime.certificate option;
      (** anytime certificate, present exactly when a budget cut the
          protocol run off; its reference is the same config with the
          budget lifted and checking off, on the same preferences and
          effective capacity ([wall_ms] excludes that run) *)
  failures : string list;
      (** the run's verdict, one line per failed gate, [[]] = pass:
          [quiesced = Some false]; bounded-damage violations; a VOID
          anytime certificate; a VOID self-stabilization certificate
          (waived under an adversary spec or a budget); checker
          violations.  Front ends print it and never re-derive it *)
  serve : Serve_report.t option;
      (** sustained-traffic serving report, filled by the serving layer
          ([owp_serve]) on the outcome it returns for a serve session —
          whose [failures] then cover every engine run of the session;
          always [None] on a plain {!run_config} outcome *)
  detail : detail;
}

val weights : Preference.t -> Weights.t
(** Eq. 9 weights of the preference system. *)

val run_config : ?capacity:int array -> Run_config.t -> Preference.t -> outcome
(** Solve the instance as the config says.  The config is
    {!Run_config.validate}d first.  [capacity], when given, overrides
    the preference system's quota vector — the serving layer uses it
    to model membership (capacity 0 for departed nodes) without
    rebuilding the preference system; satisfaction is still evaluated
    against the original lists.
    @raise Invalid_argument on an inconsistent config (e.g. a guard
    with no adversary spec). *)

val crash_schedule : seed:int -> n:int -> float -> Stack.crash_plan list
(** The deterministic (seed-derived) fail-stop schedule behind
    [faults.crash]: each node independently crashes with the given
    probability at a random early point and never restarts.  Exposed so
    experiments can reuse the CLI's exact schedule. *)

val satisfaction_profile : Preference.t -> Owp_matching.Bmatching.t -> float array
(** Per-node satisfaction values of a matching. *)
