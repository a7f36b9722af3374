(** Reliable-delivery transport over a faulty {!Simnet}.

    {!Simnet} models a raw datagram network: messages can be dropped,
    duplicated or reordered, and hosts can crash.  The paper's LID
    analysis (Lemmas 5-6) assumes none of that — it needs reliable
    per-link FIFO channels.  This module closes the gap the way a real
    overlay would: a small ARQ protocol per directed link.

    Mechanisms, per directed link:
    - {b sequence numbers} on every data frame, so the receiver can
      suppress duplicates and reassemble order;
    - {b in-order delivery}: out-of-order arrivals are buffered and the
      contiguous prefix is handed to the application, so the layer above
      sees a FIFO channel even on a reordering network;
    - {b cumulative ACKs}: the receiver acknowledges the highest
      contiguously received sequence number on every arrival;
    - {b retransmission timers} with exponential backoff and
      multiplicative jitter; any ACK progress resets the backoff;
    - {b bounded retries}: after [max_retries] consecutive silent
      retransmission rounds the sender {e gives up}, discards the
      window and reports the peer dead via [on_peer_dead] — the same
      "treat the peer as silent" escape hatch the robust stack
      configuration uses, so the protocol above can fall back to an
      implicit decline;
    - {b incarnation epochs} for crash-restart: {!restart_node} clears
      the node's volatile link state and bumps its epoch; peers discard
      frames from dead incarnations and reset their receive state when
      a higher epoch appears.

    With [max_retries] large enough that give-up never fires (loss
    probability < 1 guarantees each retransmission round succeeds with
    positive probability), the layer delivers every message exactly
    once, in per-link FIFO order — restoring the exact hypotheses of
    Lemmas 5-6 for {!Owp_core.Stack}[.run ~reliable:true].

    {b Layout.}  Every directed link [(src, dst)] is found by its packed
    key [src * nodes + dst] in one open-addressed table (linear probing,
    the probe of {!Simnet}'s link clock), which holds both halves of the
    link: no tuple is built and nothing is hashed structurally per
    frame.  The table starts at a power of two of at least 64 and
    [2 * Simnet.burst net + 2] slots, so a burst on that many links
    stays under the half-full mark at which it doubles.  Go-back-N
    with cumulative ACKs keeps the unacked seqs contiguous, so the
    sender's window is a ring over [[base, next_seq)]: an ACK advances
    [base], a give-up sets [base := next_seq], and a retransmission
    walks [base .. next_seq - 1] in ascending order.  The ring starts
    at 2 slots, enough for the one PROP and one REJ a correct LID link
    carries, and doubles when full.
    The receiver keeps out-of-order frames in a small seq-sorted buffer;
    an in-order frame on an empty buffer is delivered without touching
    it.  {!restart_node} only bumps the node's epoch: the node's
    senders and receivers go stale and are replaced on their next use,
    and a stale sender's pending timer does nothing. *)

type 'm frame =
  | Data of { epoch : int; seq : int; payload : 'm }
  | Ack of { epoch : int; cum : int }
      (** cumulative: everything up to [cum] (inclusive) arrived *)

type config = {
  rto_initial : float;  (** first retransmission timeout *)
  rto_backoff : float;  (** multiplier per silent round, >= 1 *)
  rto_max : float;  (** backoff ceiling *)
  rto_jitter : float;  (** uniform multiplicative jitter in [0, j] *)
  max_retries : int;
      (** consecutive silent retransmission rounds before the peer is
          declared dead *)
}

val default_config : config
(** [rto_initial = 4.0] (a few one-way delays of the default
    [Uniform (0.5, 1.5)] model), [rto_backoff = 1.6], [rto_max = 48.0],
    [rto_jitter = 0.25], [max_retries = 24] — at drop probability 0.3
    the chance of 25 consecutive losses on one frame is [3e-14], so
    give-up effectively never fires below extreme loss. *)

type 'm t

val create :
  ?config:config ->
  ?hold:(node:int -> peer:int -> bool) ->
  'm frame Simnet.t ->
  on_deliver:(src:int -> dst:int -> 'm -> unit) ->
  on_peer_dead:(node:int -> peer:int -> unit) ->
  'm t
(** Installs itself as the network's handler (do not call
    {!Simnet.set_handler} afterwards).  [on_deliver] receives exactly
    the application payloads, deduplicated and in per-link send order;
    it may call {!send} reentrantly.  [on_peer_dead ~node ~peer] fires
    at most once per directed link when [node] exhausts its retries
    towards [peer].

    [hold] (default: never) is consulted at the moment the retry budget
    runs out: when it answers [true] — e.g. a scheduled outage episode
    is active, so the silence is indistinguishable from a partition the
    stack has been told about — the sender {e suspects} the link
    instead of giving up: the retry budget is refreshed and the window
    keeps retransmitting at the capped RTO, so the stream resumes by
    itself once the network heals (the first ACK through clears the
    suspicion).  Suspect/resume transitions are counted in
    {!links_suspected}/{!links_resumed}. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Hand a payload to the transport.  Discarded if [src] is down
    (crashed hosts cannot transmit) or if [src] has already declared
    [dst] dead. *)

val restart_node : 'm t -> int -> unit
(** Clear the volatile transport state of a node that crashed and came
    back, and bump its incarnation epoch.  Call after
    {!Simnet.restart}. *)

(* owp-lint: allow dead-export — test seam: a node's give-up state *)
val peer_dead : 'm t -> node:int -> peer:int -> bool
(** Has [node] given up on [peer]? *)

(** {2 Accounting} *)

val data_sent : _ t -> int
(** First transmissions of application payloads. *)

val retransmissions : _ t -> int
val acks_sent : _ t -> int
val duplicates_suppressed : _ t -> int
val peers_declared_dead : _ t -> int

val links_suspected : _ t -> int
(** Links whose give-up was converted into suspicion by the [hold]
    hook (counted once per suspicion episode, not per held firing). *)

val links_resumed : _ t -> int
(** Suspected links that saw ACK progress again — healed streams that
    picked up where they left off. *)

val give_ups_held : _ t -> int
(** Individual retry-exhaustion events the [hold] hook suppressed
    (every [max_retries] silent rounds while suspected adds one). *)

val frames_sent : _ t -> int
(** [data_sent + retransmissions + acks_sent] — the wire total to
    compare against the fault-free protocol message count. *)
