(** Overlay construction with per-peer private metrics.

    The paper's headline scenario: each peer individually chooses a
    suitability metric (never disclosed), ranks its potential neighbours
    with it, and the swarm runs LID to form connections with a provable
    collective-quality guarantee.  This module wires the layers
    together: per-node metrics → preference system → eq. 9 weights →
    LID → quality report. *)

type config = {
  quota : int -> int;  (** connection quota per peer *)
  metric_of : int -> Metric.t;  (** each peer's private metric *)
}

val homogeneous : quota:int -> Metric.t -> config
(** Every peer uses the same quota and metric. *)

val heterogeneous : quota:int -> Metric.t array -> pick:(int -> int) -> config
(** Peer [i] uses [metrics.(pick i)]. *)

val preferences : Graph.t -> config -> Preference.t
(** Materialise every peer's preference list from its own metric. *)

val build : ?seed:int -> Graph.t -> config -> Owp_core.Pipeline.outcome
(** Construct the overlay with LID over the simulated network. *)
