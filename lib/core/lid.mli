(** LID — Local Information-based Distributed algorithm (paper Alg. 1).

    Every node ranks its incident edges by the symmetric weight of
    eq. 9 (its "weight list") and proposes (PROP) to its top [b_i]
    neighbours.  A mutual proposal locks the connection; a node whose
    proposal is declined (REJ) proposes to its next-ranked neighbour; a
    node with all proposals locked declines everyone left.  The paper
    proves: termination (Lemma 5), equivalence with LIC's edge set
    (Lemmas 3, 4, 6), a ½-approximation of the maximum-weight
    many-to-many matching (Theorem 2 + Lemma 6) and a ¼(1 + 1/b_max)
    approximation of the maximizing-satisfaction b-matching (Theorem 3).

    The protocol is factored into an {e explicit state machine}
    ({!init} / {!start} / {!deliver}) with one executor on top: {!Stack.run}
    drives it over {!Owp_simnet.Simnet} (delays, message order and
    faults controlled by the caller; with no layer enabled it is plain
    Algorithm 1 on one schedule), while {!model} exposes the very same
    transition code to {!Owp_check.Explore}, which enumerates {e all}
    per-link FIFO schedules on small instances. *)

type message = Prop | Rej

(** {2 The protocol state machine} *)

type state
(** Mutable protocol state of all nodes, laid over the graph's CSR: node
    [i]'s candidates are the slots of its adjacency row, and the paper's
    sets U_i, P_i, P_i \ K_i, A_i and K_i are flag bits in one byte per
    slot.  Each row's weight list is stored as slots in one 2m-sized
    array; |U_i|, |P_i \ K_i|, the scan pointer, termination and a
    lookup memo are n-sized arrays.  Proposals from non-neighbours land
    in a per-node side list. *)

val init : ?perceived:float array -> Weights.t -> capacity:int array -> state
(** Fresh protocol state: every node's weight list (lines 1–3 of
    Alg. 1), its incident edges heaviest first in
    {!Weights.compare_edges} order.  No message is sent until {!start}.
    [perceived], when given, ranks by an explicit weight per adjacency
    slot instead: node [i] orders its row by [perceived.(s)], heaviest
    first with the same tie-break, and a NaN leaves that neighbour out
    of its candidates (its deliveries are [`Outside] for
    {!mark_delivery}).  The {!Stack}'s guard layer uses it to rank by
    {e perceived} weights built from (possibly dishonest) advertised
    half-weights, and to exclude peers quarantined at bootstrap.
    @raise Invalid_argument on negative capacities, or when [perceived]
    is not one entry per adjacency slot. *)

val start : state -> emit:(int -> int -> message -> unit) -> unit
(** The bootstrap burst: every node proposes to the top [b_i] of its
    weight list, and a node with nothing to propose declines its
    candidates.  Each send goes to [emit src dst m], in order.  Call it
    once, on a fresh state, before any {!deliver}; [emit] must not
    re-enter the state machine. *)

val burst : state -> int
(** Σ min(b_i, deg_i): the most messages {!start} sends, all at once
    and on distinct links — the largest population a simulator running
    this state ever holds in flight from the bootstrap, and the hint
    its {!Owp_simnet.Simnet.create} takes as [burst]. *)

val deliver :
  state -> src:int -> dst:int -> message -> emit:(int -> int -> message -> unit) -> unit
(** Process one delivery at [dst] (lines 4–16 of Alg. 1), mutating the
    state and handing each send it causes to [emit src dst m], in
    order.  [emit] must not re-enter [deliver]. *)

val mark_delivery :
  state -> src:int -> dst:int -> message -> [ `First | `Repeat | `Outside ]
(** Record that [dst] received [message] from [src]: [`First] the first
    time for this link and kind, [`Repeat] afterwards, [`Outside]
    (nothing recorded) when [src] is not among [dst]'s candidates.  The
    marks are not protocol state — {!deliver}, {!freeze} and
    {!fingerprint} ignore them — but they sit in the flag byte
    {!deliver} reads, so marking just before delivering costs no extra
    cache miss.  The {!Stack}'s dedup layer keeps its seen set here. *)

(* owp-lint: allow dead-export — test seam: Lemma 5's termination state *)
val quiesced : state -> bool
(** Every node reached U_i = ∅ (Lemma 5). *)

val awaiting_reply : state -> node:int -> peer:int -> bool
(** Is [node]'s proposal to [peer] still unanswered (peer in P_i \ K_i)?
    Used by the {!Stack} detector's patience timers to decide whether a
    silent peer still blocks progress. *)

val locks : state -> int -> int list
(** Peers node [i] has locked (its K_i), ascending.  Unlike
    {!locked_edge_ids} this is one-sided: it includes locks whose
    counterpart never reciprocated (possible only when a peer
    misbehaves), which is exactly what the bounded-damage accounting
    in {!Owp_check.Byzantine} needs. *)

val unterminated_nodes : state -> int list
(** Nodes that have not quiesced, ascending. *)

val quiescence_violations : state -> Owp_check.Violation.t list
(** One structured report per node that failed to quiesce: how many
    proposals are still unanswered and how many candidates remain. *)

val locked_edge_ids : state -> int list
(** Edges locked by {e both} endpoints, ascending — the protocol's
    current matching (symmetric on a clean run, Lemma 4).  One pass
    over the slots, O(n + m). *)

val freeze : state -> (int * int) list
(** Anytime cutoff: atomically release every tentative (unanswered)
    proposal, empty the candidate sets and mark every node finished, so
    the locked edges become a final served matching.  Both endpoints of
    each pending proposal are released in the same step — the effect of
    a synthetic REJ at each end {e without} re-entering the propose
    transition, so no new pendings or locks can form after the budget
    expired and neither endpoint counts a phantom slot.  Mutual locks
    are untouched; {!locked_edge_ids} is the matching to serve.
    Returns the released [(proposer, peer)] pairs, ascending.
    Idempotent; on a quiesced state it returns [[]]. *)

val copy_state : state -> state
val fingerprint : state -> string
(** Canonical encoding of the protocol state (the scan pointer, a pure
    optimisation, is excluded): equal fingerprints imply identical
    future behaviour.  Used by the interleaving explorer's
    transposition table. *)

val model :
  Weights.t -> capacity:int array -> (state, message) Owp_check.Explore.protocol
(** The protocol, packaged for exhaustive schedule exploration;
    [observe] is {!locked_edge_ids}.  Its [give_up] transition treats a
    dead peer as an implicit decline (a synthetic REJ through the same
    [deliver] code), so the explorer can also model-check convergence
    under adversarial link failures ([max_link_failures > 0]). *)
