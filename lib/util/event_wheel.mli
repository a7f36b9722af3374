(** Bucketed event wheel (calendar queue) over [(at, seq)] keys.

    The simulator's event store: a monomorphic priority queue holding
    one [int] payload per event (an arena slot index), keyed by virtual
    time [at] and a strictly increasing tie-break [seq].  Events are
    linked O(1) into time buckets of width [w] (one slot pool of
    unboxed [float]/[int] arrays, no per-event allocation); the bucket
    whose window is being drained is sorted once into a flat run and
    consumed by a moving head.  Two inline binary heaps catch the cases
    a plain calendar cannot: an {e aux} heap for events inserted at or
    before the epoch currently draining (handlers send with tiny delays
    — the per-link FIFO clamp lands 1e-9 ahead of now), and an
    {e overflow} heap for events beyond the wheel horizon (stragglers,
    far-future timers).  {!pop} always returns the exact global
    [(at, seq)] minimum — the same total order as a binary heap over
    the same keys, which is what the QCheck equivalence suite asserts.

    {b Width retuning.}  The wheel picks its own width, after Brown's
    calendar queue (CACM 31(10), 1988).  Whenever it opens a window it
    records how many events the window holds and how many epochs the
    window moved; once those windows add up to a quarter of the stored
    events, a mean occupancy more than 4x away from the target of 4
    events per epoch (either way) rescales the width by the ratio and
    re-buckets every event.  The bucket count follows the population
    (about two events per bucket).  Retuning happens only while a
    window is being opened, with the run and the aux heap empty, so it
    never reorders anything: the pop order is the [(at, seq)] order
    whatever the width.

    {b Cost model.}  [add] is O(1) into a bucket (O(log) into a heap
    for out-of-window or beyond-horizon keys); popping from a window of
    k events costs O(log k) for its share of the sort, and retuning
    keeps k near a constant, so a pop is O(1) amortized, each O(size)
    re-bucketing being paid for by the size / 4 events drained since
    the previous check.  Keys compare as [float]/[int] in registers.

    Not thread-safe: one wheel belongs to one owner. *)

type t

val create : ?width:float -> ?buckets:int -> unit -> t
(** [width] (default [0.25]) is the {e initial} bucket span in
    virtual-time units; the wheel retunes it from the occupancy it
    observes, so it is a warm-up hint only, never a correctness knob.
    [buckets] (default [64], rounded up to a power of two) is the
    initial wheel size; the wheel resizes itself as the population
    grows or shrinks.
    @raise Invalid_argument on non-positive [width] or [buckets]. *)

val add : t -> at:float -> seq:int -> int -> unit
(** Insert a payload at key [(at, seq)].  Keys need not arrive in any
    particular order; [seq] values must be unique for the order to be
    total.  @raise Invalid_argument on negative or non-finite [at]. *)

val pop : t -> (float * int * int) option
(** Remove and return the minimum-key event as [(at, seq, payload)]. *)

val peek_key : t -> (float * int) option
(** The key {!pop} would return, without removing it.  Like {!pop} this
    may open (collect + sort) the next window. *)

(** {2 Allocation-free pop protocol}

    [pop] allocates an option and a tuple per event — measurable at
    millions of events on the simulator's hot path.  [pop_into] removes
    the same minimum-key event but publishes it through out-params
    instead: *)

val pop_into : t -> bool
(** Remove the minimum-key event, exposing it via {!last_at} /
    {!last_seq} / {!last_pay}; [false] when the wheel is empty (the
    out-params then keep their previous values).  Identical pop order
    to {!pop}. *)

val last_at : t -> float

(* owp-lint: allow dead-export — test seam: the popped event's sequence *)
val last_seq : t -> int

val last_pay : t -> int
(** Components of the event most recently removed by {!pop_into};
    overwritten by the next call. *)

val next_at_equals : t -> float -> bool
(** Does the head event fire at exactly the given time?  Equivalent to
    matching {!peek_key} against [Some (at, _)] but allocation-free —
    the same-timestamp batching probe of the simulator's dispatch
    loop. *)

val size : t -> int
(** Events currently stored. *)

(* owp-lint: allow dead-export — test seam: observes the wheel retuning *)
val width : t -> float
(** The current bucket width; it changes as the wheel retunes itself. *)

val footprint_words : t -> int
(** Allocated backing-store size in words (slot pool, bucket heads,
    run, heaps) — the quantity the serve-session memory assertions
    bound.  Proportional to the high-water mark of {e live} events,
    never to the total number of events that ever passed through. *)
