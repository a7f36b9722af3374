(** Self-stabilization certificate for runs under a fault schedule.

    A {!Owp_simnet.Schedule.t} scripts network weather — partitions,
    link flaps, loss bursts, crash-then-restart — whose last episode
    ends at the heal instant [T_heal].  Self-stabilization is the
    claim that the weather left no scars: once the network heals, the
    run quiesces on its own and converges to exactly what a run
    {e without} the weather (but with the same permanent losses) would
    have produced.  Recovery {e time} is the quality axis Floréen et
    al. ("Almost Stable Matchings in Constant Time") argue matters for
    dynamic networks, so the certificate measures it instead of only
    pass/failing.

    Certified means all three of:

    {ol
    {- {b Quiescence}: every participating node terminated after the
       heal.}
    {- {b Convergence}: the final edge set equals the {e crash-only
       reference} — LIC on the subgraph of nodes that ended the run
       participating (nodes permanently crashed, retired by a [Down]
       episode, or Byzantine are outside it).  The caller computes the
       reference (this library cannot run LIC); the certificate
       diffs the two sets and records the witnesses.}
    {- {b Feasibility}: the served edge set is a valid sub-b-matching,
       re-verified from scratch.}}

    Exact convergence is only a theorem for {e transient} weather
    (partitions, link outages, flapping, loss bursts): such a run is a
    delayed clean run, so Lemma 6 schedule-independence applies.  A run
    with fail-stop {e deaths} ([Down] episodes or crash faults) is
    different in kind: LID rejections are irrevocable, so a node that
    deferred suitors while half-locked toward a peer that then died has
    already burned bridges no heal can rebuild — exact equality with
    the survivor reference is unachievable by any certificate-side
    relativization.  The caller flags such runs with [deaths]; the diff
    is still measured and reported, but {!certified} then rests on
    quiescence + feasibility, with convergence informational.

    Recovery time [quiesce_at − T_heal] is reported (clamped at 0: a
    run that quiesced before the weather even ended recovered
    instantly).  Composes with the other certificates: under a
    deadline the anytime certificate owns feasibility-at-cutoff and
    this one simply reports whether the budget also bought
    convergence; under adversaries the damage certificate is
    unchanged. *)

type instance = {
  weights : Weights.t;  (** true symmetric weights (eq. 9) *)
  prefs : Preference.t option;  (** enables satisfaction checking *)
  capacity : int array;
  edges : int list;  (** the final served matching, edge ids *)
  reference : int list;
      (** the crash-only reference: LIC's edge set on the
          participating subgraph *)
  deaths : bool;
      (** the run contained fail-stop deaths ([Down] episodes or crash
          faults): convergence becomes informational *)
  t_heal : float;  (** end of the last scheduled episode *)
  quiesce_at : float;  (** virtual time the run completed *)
  quiesced : bool;  (** every participating node terminated *)
}

val instance :
  ?prefs:Preference.t ->
  ?deaths:bool ->
  Weights.t ->
  capacity:int array ->
  edges:int list ->
  reference:int list ->
  t_heal:float ->
  quiesce_at:float ->
  quiesced:bool ->
  instance
(** [deaths] defaults to [false].
    @raise Invalid_argument on a negative [t_heal]. *)

type certificate = {
  feasible : bool;
  violations : Violation.t list;  (** feasibility witnesses *)
  quiesced : bool;
  converged : bool;  (** served set = reference set *)
  missing : int list;  (** reference edges the run never (re)locked *)
  extra : int list;  (** served edges outside the reference *)
  deaths : bool;  (** copied from the instance *)
  recovery_time : float;  (** [max 0 (quiesce_at − t_heal)] *)
  t_heal : float;
}

val check : instance -> certificate
(** Never raises: a malformed instance yields a void certificate with
    the violations recorded. *)

val certified : certificate -> bool
(** [feasible && quiesced && (converged || deaths)]: under fail-stop
    deaths the convergence clause is informational (see the module
    doc). *)

val to_string : certificate -> string
(** Multi-line human-readable rendering, CERTIFIED/VOID first. *)
