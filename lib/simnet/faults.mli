(** The unified fault model of a simulated run.

    Until PR 4 every fault knob travelled as its own optional argument
    (drop/dup/reorder probabilities, FIFO flag, crash fraction, patience
    timer) through [bin/owp.ml], the reliable driver and the
    experiment harness, each with its own defaults.  This record is the
    single source of truth: one value describes the whole environment a
    run executes in, with one parser and one printer shared by
    [owp run], [owp check] and the benchmark harness.

    The channel-level subset ({!field-drop}, {!field-duplicate},
    {!field-reorder}) converts to the event-level {!Simnet.faults}
    record via {!channel}; the host-level knobs ({!field-crash},
    {!field-patience}) and the ordering regime ({!field-fifo}) are
    consumed by the drivers themselves. *)

type t = {
  drop : float;  (** per-message loss probability *)
  duplicate : float;  (** per-message duplication probability *)
  reorder : float;  (** per-message straggler probability (breaks FIFO) *)
  fifo : bool;  (** per-directed-link in-order delivery (default on) *)
  crash : float;  (** fraction of peers that fail-stop mid-run *)
  patience : float option;
      (** protocol-level wait timeout (virtual time); [None] preserves
          exactness under pure channel faults *)
}

val none : t
(** Fault-free FIFO network: all probabilities 0, no crashes, no timer. *)

val equal : t -> t -> bool
(** Field-wise equality via [Float.equal] (the record carries floats,
    so polymorphic [=] is off limits). *)

(* owp-lint: allow dead-export — shared test input, built without the parser *)
val make :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?fifo:bool ->
  ?crash:float ->
  ?patience:float ->
  unit ->
  t
(** Unspecified fields default to {!none}'s values. *)

val channel : t -> Simnet.faults
(** The channel-fault subset, as {!Simnet.create} consumes it. *)

val channel_faulty : t -> bool
(** Any of drop/duplicate/reorder positive, or FIFO disabled — i.e. the
    plain datagram protocol would need the reliable transport. *)

val any : t -> bool
(** [channel_faulty] or a positive crash fraction. *)

val effective_patience : t -> float option
(** The patience a driver should arm: the explicit one when given, 60.0
    virtual seconds when crashes are in play (a crashed peer never
    answers, so some protocol-level timeout is mandatory for liveness),
    [None] otherwise.  The default sits comfortably above the reliable
    transport's worst-case bounded-retry window (so a live peer behind a
    lossy channel is answered before the timer fires) while keeping
    crash runs from waiting on dead peers much longer than that window. *)

val validate : t -> (t, string) result
(** Range checks: probabilities and the crash fraction in [0, 1],
    patience positive. *)

val of_string : string -> (t, string) result
(** Parse the compact spec used by [--faults]: comma-separated
    [drop=P], [dup=P], [reorder=P], [crash=F], [patience=T], and the
    bare flags [unordered] (FIFO off) and [fifo]; ["none"] or the empty
    string is {!none}.  Example: ["drop=0.2,dup=0.1,unordered"]. *)

val to_string : t -> string
(** Canonical spec; omits default fields, ["none"] when fault-free.
    [of_string (to_string t) = Ok t]. *)

val pp : Format.formatter -> t -> unit
