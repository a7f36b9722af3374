(** Deterministic discrete-event message-passing simulator.

    The paper's LID protocol is asynchronous: peers exchange PROP/REJ
    messages with arbitrary (finite) delays.  This simulator provides the
    substrate — a virtual-time event queue, per-link delay models,
    optional per-link FIFO ordering, fault injection (loss, duplication,
    adversarial reordering, crash/restart) and message accounting — so
    distributed algorithms can be executed reproducibly and their
    message/latency complexity measured.

    The simulator is polymorphic in the message type ['m]; protocol
    state lives with the protocol, which registers a delivery handler. *)

type 'm t

type delay_model =
  | Unit  (** every message takes exactly 1 time unit *)
  | Uniform of float * float  (** iid uniform in [lo, hi] *)
  | Exponential of float  (** iid exponential with the given mean *)

type faults = {
  drop_probability : float;  (** each message lost independently *)
  duplicate_probability : float;  (** each message delivered twice *)
  reorder_probability : float;
      (** each message independently turned into a straggler: it takes
          roughly 3x its sampled delay and bypasses the per-link FIFO
          clamp, so it arrives out of order even on [fifo:true] links *)
}

val no_faults : faults

val faults : ?drop:float -> ?duplicate:float -> ?reorder:float -> unit -> faults
(** Fault record with unspecified probabilities defaulting to 0. *)

val create :
  ?seed:int ->
  ?fifo:bool ->
  ?faults:faults ->
  nodes:int ->
  delay:delay_model ->
  unit ->
  'm t
(** [fifo] (default [true]) forces per-directed-link in-order delivery by
    clamping delivery times; LID is analysed under reliable channels, and
    FIFO matches a TCP-like overlay link.  [fifo:false] is the non-FIFO
    regime: delivery order is whatever the sampled delays dictate.
    @raise Invalid_argument on negative [nodes]. *)

val node_count : _ t -> int

val now : _ t -> float
(** Current virtual time. *)

val set_handler : 'm t -> (src:int -> dst:int -> 'm -> unit) -> unit
(** Must be installed before [run].  The handler may call {!send}. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Enqueue a message for future delivery (subject to faults).  A send
    from a crashed node is silently discarded (the host is down). *)

val schedule : 'm t -> delay:float -> (unit -> unit) -> unit
(** Run a callback at [now + delay] — used for churn events and timers.
    Callbacks fire regardless of crash state: they model layer-local
    timers whose owners must consult {!is_up} themselves. *)

(** {2 Crash/restart fault model}

    A node can crash at any point in virtual time and optionally restart
    later.  While down it neither transmits (sends are discarded) nor
    receives (packets arriving during the outage are lost).  Restart
    brings the interface back up; any {e volatile} state a layer kept
    for the node is the layer's responsibility to clear (see
    {!Transport.restart_node}). *)

val crash : _ t -> int -> unit
(** Take a node down at the current virtual time.  Idempotent. *)

val restart : _ t -> int -> unit
(** Bring a crashed node back up.  Idempotent. *)

val is_up : _ t -> int -> bool

val run : 'm t -> unit
(** Process events until quiescence.
    @raise Failure if no handler was installed and a message is due. *)

val run_until : 'm t -> float -> unit
(** Process events with time <= the horizon; later events remain queued. *)

val pending_events : _ t -> int
(** Events (deliveries and timer callbacks) still queued — after
    {!run_until} this is the in-flight work a deadline cut off. *)

(* owp-lint: allow dead-export — test seam: the event store's memory *)
val footprint_words : _ t -> int
(** Words of event-store backing memory currently allocated: the
    event wheel plus the message/callback arenas and the live
    link-clock table.  Proportional to the high-water mark of in-flight
    events, never to the total traffic that ever passed through — the
    quantity the serve-session memory assertions bound. *)

(** {2 Accounting} *)

val messages_sent : _ t -> int
val messages_delivered : _ t -> int

val messages_dropped : _ t -> int
(** Messages lost to the channel ([drop_probability]), not counting
    crash-related loss. *)

val messages_reordered : _ t -> int
(** Messages turned into stragglers by [reorder_probability]. *)

val messages_lost_to_crashes : _ t -> int
(** Sends from a down node plus arrivals at a down node. *)

val messages_cut : _ t -> int
(** Deliveries swallowed by the {!set_outage} hook (scheduled network
    weather), not counting i.i.d. channel loss or crash loss. *)

val crash_events : _ t -> int
(** Number of {!crash} transitions (up -> down). *)

val set_outage : 'm t -> (at:float -> src:int -> dst:int -> float) option -> unit
(** Time-varying link weather (see {!Schedule}): the hook maps a
    delivery [(at, src, dst)] to an extra loss probability — [1.0]
    cuts the delivery deterministically (no randomness consumed),
    [0 < p < 1] tosses the simulator's coin, [0.] lets it through.
    Evaluated when the message would {e arrive}, so an episode starting
    mid-flight still swallows it.  Cut messages count in
    {!messages_cut}. *)
