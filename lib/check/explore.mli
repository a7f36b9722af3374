(** Exhaustive interleaving explorer for asynchronous message protocols.

    {!Owp_simnet.Simnet} executes {e one} schedule per seed: delays are
    sampled, messages are delivered in virtual-time order.  This module
    instead model-checks a protocol: it enumerates {e every} per-link
    FIFO delivery order reachable from the initial sends, so properties
    like Lemma 5 (termination on all schedules) and Lemma 6 (the locked
    edge set is schedule-independent) become universally quantified
    statements on small instances instead of sampled observations.

    A configuration is the protocol state plus the multiset of
    in-flight messages, organised as one FIFO queue per directed link
    (matching the simulator's [fifo:true] semantics).  From each
    configuration, delivering the head of any non-empty link is an
    enabled transition.  Two different interleavings that reach the
    same configuration have identical futures, so the search memoises
    configurations by a canonical fingerprint — the
    transposition-table cut that keeps the search polynomial in the
    number of {e reachable configurations} rather than the (factorial)
    number of schedules.  Distinct complete schedules are still counted
    exactly (by dynamic programming over the memo table).

    The explorer is generic: protocols are supplied as a first-class
    record of transition functions, so the {e production} protocol code
    (e.g. [Lid.deliver]) is what gets explored, not a model of it. *)

type 'm send = { src : int; dst : int; payload : 'm }

type ('s, 'm) protocol = {
  init : unit -> 's * 'm send list;
      (** fresh protocol state and the initial message burst *)
  deliver : 's -> src:int -> dst:int -> 'm -> 'm send list;
      (** deliver one message, mutating the state in place, and return
          the messages it caused to be sent (in send order) *)
  copy : 's -> 's;  (** deep copy, for branching *)
  fingerprint : 's -> string;
      (** canonical encoding: equal fingerprints must imply equal
          future behaviour *)
  quiesced : 's -> bool;  (** has the protocol terminated cleanly? *)
  stragglers : 's -> int list;
      (** nodes that are not done (reported on deadlock) *)
  observe : 's -> int list;
      (** the outcome to compare across schedules (e.g. locked edge
          ids, sorted) *)
  msg_tag : 'm -> int;  (** injective message encoding for fingerprints *)
  give_up : ('s -> self:int -> peer:int -> 'm send list) option;
      (** [give_up st ~self ~peer]: the reliable-transport escape hatch —
          [self] has exhausted its retries towards [peer] and treats it
          as dead (see {!Owp_simnet.Transport}); mutate the state as the
          protocol's recovery dictates and return the sends it causes.
          [None] disables adversarial link-failure exploration. *)
}

type 'm adversary = {
  byz : int;  (** the node the adversary controls *)
  injections : 'm send list;
      (** its repertoire: messages it may put on the wire, from any
          [src = byz] towards any destination (stranger sends included);
          each injection spends one unit of [budget] *)
  budget : int;  (** total number of injections across a schedule *)
}
(** A Byzantine node under exhaustive exploration.  The node's honest
    state machine is disabled by the protocol wrapper (deliveries to it
    are no-ops), and in exchange the explorer branches, at {e every}
    configuration, on each repertoire message the adversary might send
    next — so all interleavings of up to [budget] adversarial sends with
    ordinary deliveries are covered, including the strategy of staying
    silent forever.  When the network idles with stuck correct nodes,
    the protocol's [give_up] transition is applied towards [byz] for
    every straggler (the quiet-network failure-detector round the
    guarded driver implements); without a [give_up] the stuck
    configuration is recorded as a termination violation. *)

type stats = {
  configurations : int;  (** distinct configurations explored *)
  schedules : int;  (** complete FIFO schedules covered (saturating) *)
  dedup_hits : int;  (** transposition-table hits *)
  max_in_flight : int;  (** peak number of undelivered messages *)
  truncated : bool;  (** search stopped at [max_configs] *)
}

type verdict = {
  stats : stats;
  observations : int list list;
      (** distinct terminal observations, in discovery order; a
          schedule-independent protocol yields exactly one *)
  violations : Violation.t list;
      (** deadlocks (termination failures), observation divergence,
          and truncation, as structured reports *)
}

val explore :
  ?max_configs:int ->
  ?max_link_failures:int ->
  ?adversary:'m adversary ->
  ?on_terminal:('s -> Violation.t list) ->
  ('s, 'm) protocol ->
  verdict
(** Exhaustively explore all FIFO interleavings.  [max_configs]
    (default 2_000_000) bounds the transposition table; exceeding it
    yields a [truncated] verdict with a violation rather than an
    endless search.

    [max_link_failures] (default 0) additionally arms an adversary that
    may, at any configuration with a message in flight on some link,
    permanently fail that link: the in-flight messages die, and — since
    a dead direction also starves the reverse direction of ACKs — both
    endpoints run the protocol's [give_up] recovery.  Every interleaving
    of up to [max_link_failures] such failures with ordinary deliveries
    is explored.  Termination (Lemma 5) is still demanded of every
    schedule; outcome uniqueness (Lemma 6) is only demanded when
    [max_link_failures = 0], because the surviving edge set legitimately
    depends on which links died.

    [adversary], when given, arms a Byzantine node (see {!type-adversary});
    outcome uniqueness is then also waived, since the terminal edge set
    legitimately depends on what the adversary said.  [on_terminal st]
    is evaluated at every terminal configuration (clean or deadlocked)
    and its violations — deduplicated across schedules — are added to
    the verdict; this is how per-terminal-state certificates like the
    bounded-damage check ({!Byzantine}) are quantified over all
    interleavings.
    @raise Invalid_argument if [max_link_failures > 0] and the protocol
    has no [give_up] transition. *)

val ok : verdict -> bool
(** No violations. *)

val pp_verdict : Format.formatter -> verdict -> unit
