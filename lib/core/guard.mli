(** Per-node protocol guard: inbound-message validation and quarantine.

    Every message a guarded node receives passes through its guard
    before reaching {!Lid.deliver}.  The guard checks two things a node
    can verify {e locally}:

    {ol
    {- {b The per-link protocol state machine.}  In a fault-free run of
       Algorithm LID each directed link carries {e at most one} protocol
       message, ever: a peer either proposes to us once (and our answer,
       if any, travels on the opposite direction), or declines us once —
       a node never proposes twice to the same peer (P_i only grows),
       never declines twice (the first REJ removes us from its U), never
       follows its own PROP with a REJ (it only declines peers it never
       proposed to) and never proposes after declining (declining
       happens at termination).  So a duplicate PROP, a duplicate REJ,
       a PROP-after-REJ, a REJ-after-PROP (the "REJ-after-lock" attack),
       any message from a non-neighbour, and any message with a stale
       epoch are all protocol violations no honest peer can produce.}
    {- {b The locally computable half of the symmetric weight.}  By
       eq. 9, [w(i,j) = ΔS̄_i(j) + ΔS̄_j(i)] and the peer's half obeys
       the public structural bound [ΔS̄_j(i) = (1 − R_j(i)/L_j)/b_j ≤
       1/b_j] — capacities are public, so a half-weight advertisement
       above [1/b_j] is a provable lie.  An advertisement is also pinned:
       a later claim that contradicts it is an offence (honest ranks
       never change mid-run).}}

    Each offence adds to the peer's misbehaviour score; crossing the
    quarantine threshold (default: any offence) quarantines the peer —
    all its future traffic is dropped, and the caller is told to feed
    the unchanged state machine a synthetic REJ (the same escape hatch
    the {!Stack} detector uses for dead peers) and to re-announce the
    decline.

    What the guard {e cannot} see, and documents as limits: equivocation
    (every link interaction is individually legal; catching it needs
    cross-peer gossip) and in-bounds weight lies (a claimed rank that is
    wrong but ≤ 1/b is consistent with some honest preference list). *)

type offence =
  | Stranger  (** message on a non-edge of the potential graph *)
  | Duplicate_prop  (** second PROP on the same directed link *)
  | Duplicate_rej  (** second REJ on the same directed link *)
  | Prop_after_rej  (** proposal from a peer that already declined us *)
  | Rej_after_prop  (** decline from a peer that proposed (REJ-after-lock) *)
  | Stale_epoch  (** epoch below the current incarnation (replay) *)
  | Overclaim  (** advertised/claimed half-weight above the 1/b bound *)
  | Claim_mismatch  (** PROP claim contradicts the pinned advertisement *)
  | Flood  (** per-peer message budget exhausted *)

(** Wire format of the guarded protocol.  [Prop] carries the sender's
    claimed half-weight ΔS̄_src(dst) so the receiver can cross-check it;
    [epoch] is the sender's incarnation (always 0 in failure-free
    runs — replays carry old epochs). *)
type body = Prop of { claim : float } | Rej

type msg = { epoch : int; body : body }

type config = {
  epoch : int;  (** expected incarnation, default 0 *)
  quarantine_threshold : float;
      (** cumulative score at which a peer is quarantined; every offence
          scores 1.0, so the default 1.0 is zero-tolerance *)
  flood_limit : int;
      (** hard cap on messages accepted from one peer; belt-and-braces on
          top of the one-message-per-link rule *)
  tolerance : float;  (** absolute slack for float claim comparisons *)
}

val default_config : config

type verdict = {
  accept : bool;  (** deliver the message to the state machine? *)
  offence : offence option;  (** the offence just recorded, if any *)
  quarantine : bool;
      (** [true] exactly when this message pushed the peer over the
          threshold: the caller must now synthesize the REJ and
          re-announce the decline *)
}

type t

val create :
  ?config:config -> ?bound:(int -> float) -> graph:Graph.t -> me:int -> unit -> t
(** A fresh guard for node [me].  [bound peer] is the structural
    half-weight cap for [peer] (its [1/b]); default [infinity]
    (bound checking off — used by tests that exercise only the state
    machine). *)

val on_advert : t -> peer:int -> claim:float -> verdict
(** Inspect a bootstrap half-weight advertisement: pins the claim for
    later cross-checks and scores [Overclaim]/[Stranger] offences. *)

val inspect : t -> peer:int -> msg -> verdict
(** Inspect one inbound protocol message.  Quarantined peers' traffic
    is silently dropped ([accept = false], no new offence). *)

val quarantined : t -> peer:int -> bool
val quarantined_peers : t -> int list
(** Ascending. *)

(* owp-lint: allow dead-export — test seam: a peer's misbehaviour score *)
val score : t -> peer:int -> float
val offences : t -> (int * offence) list
(** Every offence recorded, in order of occurrence: (peer, offence). *)

val offence_counts : t -> (string * int) list
(** Aggregated by offence name, alphabetical. *)

val copy : t -> t

val fingerprint : t -> string
(** Canonical encoding of the guard state (per-peer link flags, scores
    and quarantine bits) for the interleaving explorer's transposition
    table. *)
