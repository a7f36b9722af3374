(** The composable LID protocol stack.

    The pure state machine {!Lid.init}/{!Lid.deliver} (Algorithm 1) is
    the top layer; everything else is middleware on the message path,
    each piece enabled independently:

    {v
      outbound:  Lid sends -> deadline gate? -> adversary behaviours
                 -> ARQ transport? -> channel faults / weather -> Simnet
      inbound:   Simnet -> transport dedup? -> adversary routing
                 -> deadline gate? -> guard / quarantine? -> protocol dedup
                 -> membership stub -> Lid.deliver
    v}

    Every layer is one value of one internal record: an optional
    outbound filter, an optional inbound filter (timers are
    {!Owp_simnet.Simnet.schedule} callbacks of the layer's own) and its
    counters.  Each layer has its own builder over one internal context
    record (the simulator, the machine, the correct and retired nodes,
    the weather) and the few up-calls it uses; its counters stay in the
    builder.  {!run} validates its arguments, builds the context and
    the bootstrap rankings, lists the enabled layers once, in table
    order — lid, deadline, detector, adversary, guard, dedup,
    transport, channel, schedule — and reads three things off that one
    list: the outbound filter chain (the deadline gate, when budgeted),
    the inbound chain (deadline gate, guard, dedup) and the counter
    table of the {!report}, one row per layer.  The inbound dispatch
    and the protocol's send sink fold those chains, so they are the
    one forward reference, set once the list exists.  Layers that only count
    (lid, detector, adversary, transport, channel, schedule) are on
    neither chain.  Quiescence/termination detection (Lemma 5) lives
    in one place, the detector layer: patience timers, transport
    give-ups, quarantine give-ups and the guarded quiet rounds.

    {!run} is the only executor.  The historical drivers are calls with
    one layer selection and their old seeds (robust [0x50B] with 10 s
    patience, reliable [0x2E1], Byzantine [0xB12] with the guard on),
    passed at the call sites that preserve the historic tables.  With
    no layer enabled it is plain Algorithm 1 on one schedule, bit for
    bit the same as a bare [Lid.init]/[Lid.deliver] loop over
    {!Owp_simnet.Simnet} (asserted by 100-seed property tests, clean and
    under channel faults), and costs about what that loop costs: its
    only filter is the dedup layer, whose seen set is the
    {!Lid.mark_delivery} bits beside the flags [Lid.deliver] reads;
    sends reach the wire through [Lid.deliver]'s sink, and unguarded
    messages travel as shared constant frames. *)

(** {1 Crash plans}

    The one membership input.  A plan crash-stops [victim] at
    [crash_at] (silent, loses volatile state); with [restart_at] the
    node comes back {e retired} — amnesiac, declining every proposal
    and re-announcing the decline to its neighbours, exactly the
    crash-restart semantics the reliable driver introduced.  A restart
    of a node that is up is a no-op. *)

type crash_plan = {
  victim : int;
  crash_at : float;  (** virtual time of the crash *)
  restart_at : float option;  (** [None]: fail-stop, never returns *)
}

(** {1 The per-layer counter table} *)

type layer = {
  layer : string;
      (** ["lid"], ["deadline"], ["detector"], ["adversary"], ["guard"],
          ["dedup"], ["transport"], ["channel"], ["schedule"] — top to
          bottom; only enabled layers appear *)
  counters : (string * int) list;  (** in a fixed order per layer *)
}

type cutoff = {
  cut_at : float;  (** the virtual-time budget that expired *)
  released : int;
      (** tentative proposals by live correct nodes the freeze released *)
  half_locks : int;
      (** one-sided locks at the horizon (the completing PROP was in
          flight) — kept in K_i, excluded from the served matching *)
  abandoned : int;  (** queued events discarded at the horizon *)
}
(** Accounting of a deadline-bounded run's cutoff. *)

type report = {
  matching : Owp_matching.Bmatching.t;
      (** locked edges between live, non-retired, correct endpoints *)
  correct : bool array;
      (** [correct.(i)] iff [i] is neither adversary-controlled nor
          fail-silent *)
  participating : bool array;
      (** [participating.(i)] iff [i] is correct {e and} ended the run
          live and non-retired — the node set the final matching can
          touch, and the subgraph the self-stabilization reference
          ({!Owp_check.Stabilize}) is computed on *)
  prop_count : int;
      (** protocol-level PROP sends by correct nodes (lid/prop) *)
  rej_count : int;
      (** protocol-level REJ sends (retirement bursts, bootstrap and
          quarantine re-announcements included; lid/rej) *)
  delivered : int;  (** frames the channel delivered (channel/delivered) *)
  dropped : int;  (** frames lost to channel faults (channel/dropped) *)
  synthetic_rejects : int;
      (** implicit declines the detector fed to the machine
          (detector/synthetic-rej) *)
  quarantine_events : int;  (** bootstrap and inbound (guard/quarantines) *)
  byz_offenders : int;  (** adversaries with at least one offence *)
  byz_quarantined : int;  (** adversaries quarantined somewhere *)
  offence_counts : (string * int) list;
      (** guard offences aggregated by name, alphabetical *)
  wasted_slots : int;  (** correct-node locks on adversary peers *)
  completion_time : float;  (** virtual time at quiescence *)
  all_terminated : bool;
      (** every live, non-retired, correct node reached U_i = ∅ *)
  unterminated : int list;  (** the live correct stragglers *)
  quiescence : Owp_check.Violation.t list;
      (** Lemma 5 violations among live correct nodes *)
  damage : Owp_check.Violation.t list;
      (** bounded-damage certificate ({!Owp_check.Byzantine.check}),
          computed when adversaries are in play; empty otherwise *)
  cutoff : cutoff option;
      (** [Some _] iff the run was budget-bounded and stopped at its
          deadline; serving the frozen partial matching is distinct
          from a quiescence failure (after the freeze
          [all_terminated] is true by construction) *)
  layers : layer list;  (** the counter table, top layer first *)
}
(** The outcome of a {!run}.  Every other count lives only in the
    counter table and is read with {!counter} — adversary peers and
    messages, reordered frames and frames lost to crashes, false
    quarantines, quiet rounds.  The six fields above that name a
    [layer/counter] mirror that table cell for their many readers. *)

val counter : report -> layer:string -> string -> int
(** [counter r ~layer name] is the named counter of the named layer, 0
    when the layer is disabled or the counter absent. *)

val overhead : report -> float
(** Wire frames per protocol message when the transport layer is
    enabled (~2.0 is the ACK floor); 1.0 without it. *)

val round_length : Owp_simnet.Simnet.delay_model -> float
(** Virtual time one propose–answer round takes under a delay model —
    the conversion behind [max_rounds] ([Unit]: 1.0; [Uniform]: the
    upper bound; [Exponential]: twice the mean).  A
    representative per-hop figure, not a worst case. *)

(** {1 The run loop} *)

val run :
  ?seed:int ->
  ?delay:Owp_simnet.Simnet.delay_model ->
  ?fifo:bool ->
  ?faults:Owp_simnet.Simnet.faults ->
  ?schedule:Owp_simnet.Schedule.t ->
  ?reliable:bool ->
  ?sim_shards:int ->
  ?transport:Owp_simnet.Transport.config ->
  ?patience:float ->
  ?deadline:float ->
  ?max_rounds:int ->
  ?crashes:crash_plan list ->
  ?silent:bool array ->
  ?adversaries:Owp_simnet.Adversary.model option array ->
  ?guard:bool ->
  ?prefs:Preference.t ->
  Weights.t ->
  capacity:int array ->
  report
(** Run LID with the selected middleware until quiescence.

    Layer selection: [reliable] puts the ARQ transport under the
    protocol (masking drop/duplicate/reorder); [patience] arms a
    one-shot timer per outgoing PROP (the implicit-decline remedy for
    fail-silent and crashed peers); [crashes] schedules crashes and
    restarts; [silent] marks fail-silent peers (receive,
    never send); [adversaries] hands nodes to Byzantine behaviours
    (requires [prefs] — adverts and claims are preference halves);
    [guard] vets bootstrap adverts and inbound messages, quarantining
    provable offenders (requires [adversaries] and [prefs]).

    [sim_shards] must be [1], its default: the simulator has one event
    store.  It stays only until the benchmark stops passing it.

    [schedule] layers time-varying network weather
    ({!Owp_simnet.Schedule}) on top of the i.i.d. [faults]: partitions,
    downed/flapping links and loss bursts cut deliveries at the
    simulator ([Down] episodes desugar to crash-then-restart plans).
    While any episode is active the stack treats silence as weather,
    not death: patience timers that fire are suppressed and re-armed
    (counted as [suppressed-give-ups] on the detector row), and the
    reliable transport {e suspects} links instead of giving up, keeping
    the window retransmitting so healed streams resume by themselves
    ([suspected]/[resumed] on the transport row).  An empty schedule is
    bit-identical to no schedule.  A ["schedule"] row appears in the
    counter table exactly when episodes are present.

    [deadline] (or [max_rounds], which is [deadline = K *
    round_length delay]; give at most one) makes the run {e anytime}:
    delivery halts at the virtual-time budget, in-flight events are
    abandoned, the state is {!Lid.freeze}-d (tentative proposals
    released atomically at both endpoints, so no phantom slot and no
    post-cutoff cascade) and the locked partial matching is served,
    with the accounting in [cutoff] and a ["deadline"] row in the
    counter table.  The event prefix up to the budget is identical to
    the unbudgeted run on the same seed, so the served matching grows
    monotonically in the budget.  Composes with every other layer;
    under a budget the damage certificate skips its blocking-pair
    clause (blocking pairs are the measured degradation).

    With adversaries in play the run ends with the bounded-damage
    certificate in [damage]: {!Owp_check.Byzantine.check} plus the
    overclaim-lock audit (a slot locked to a peer whose bootstrap
    advert provably exceeded its public [1/b] bound is avoidable
    damage — the guard provably prevents it, so its absence is what an
    unguarded run is penalised for; claims are compared with
    {!Guard.default_config}'s tolerance).

    The run checks no invariant of its final matching: callers assert
    the checkers they need with {!Owp_check.Checker.run}, as
    {!Pipeline} does for [Run_config.check].

    @raise Invalid_argument on negative capacities, arity mismatches, out-of-range or
    ill-ordered crash plans, an invalid schedule, non-positive
    patience, non-positive or doubly-specified budgets, adversaries or
    guard without [prefs], or guard without an adversary
    environment. *)

(** {1 Byzantine accounting}

    The satisfaction accounting the Byzantine experiments report, on
    the stack itself: a guarded run is [run ~adversaries ~guard ~prefs]
    and these helpers evaluate its outcome. *)

val satisfaction_of_correct : Preference.t -> report -> float
(** Total satisfaction (eq. 4/5) of the correct peers under the
    restricted matching — the quantity E22 reports as "retained". *)

val lic_reference :
  Preference.t ->
  keep:(int -> bool) ->
  quota:(int -> int) ->
  int array * Owp_matching.Bmatching.t
(** [lic_reference prefs ~keep ~quota] is LIC on the subgraph induced
    by the nodes [keep] selects, with eq. 9 weights rebuilt from the
    preference halves and original node [o] given quota [quota o].
    Returns the subgraph's node map (new id -> original id) and its
    matching, whose graph is the subgraph.  The one centralized
    reference on survivors: {!reference_satisfaction} and the
    self-stabilization reference of {!Pipeline} both use it. *)

val reference_satisfaction : Preference.t -> correct:bool array -> float
(** The same quantity for the centralized ideal on the correct
    subgraph: LIC restricted to edges between correct peers, evaluated
    with the {e original} preference lists (so the figures are
    comparable).  This is what the correct peers could have achieved
    had the Byzantine peers merely crashed. *)

val verify_exhaustively :
  ?guard:bool ->
  ?budget:int ->
  ?max_configs:int ->
  byz:int ->
  Preference.t ->
  Owp_check.Explore.verdict
(** Model-check the bounded-damage guarantee on a small instance:
    node [byz] is Byzantine with an injection repertoire covering every
    attack the runtime models express on the wire (honest-looking PROPs,
    over-bound weight claims, REJs, stale epochs, PROPs to strangers),
    [budget] (default 2) injections per schedule, interleaved every
    possible way with ordinary deliveries ({!Owp_check.Explore}).  The
    explored protocol is the production inbound composition as a pure
    {!Owp_check.Explore.protocol}, built from {!run}'s own code: the
    rankings come from the same bootstrap function (honest adverts, no
    vetting), each delivery passes the guard layer's own verdict and
    quarantine function (the decline re-announced, then a synthetic
    REJ) above the unchanged [Lid.deliver], and the quiet-round
    give-up is the hook; deliveries to [byz] are no-ops, since the
    injections are its traffic.  At every terminal
    configuration the {!Owp_check.Byzantine} certificate is checked;
    with [guard] (default [true]) the verdict must be clean, while
    [guard:false] exhibits the unguarded protocol's starvation
    deadlocks as [explore-termination] violations. *)
