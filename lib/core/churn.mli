(** Churn — the membership model of the paper's §7 future work
    ("can the same greedy strategy tackle joins/leaves?").

    The universe of peers and their (static) preference lists live on a
    fixed potential graph; peers join and leave over time, and an
    [active] mask records who is in.  This module owns that model once:
    the event type, its one validity rule ({!apply}), the quota mask
    ({!capacity}) and the measurement of a matching over the active
    peers ({!measure}).  {!Lid_dynamic} (the protocol, experiment E16)
    and [owp serve] reuse it.

    {!simulate} is the centralized repair ablation of experiment E10.
    After each event the overlay is repaired either by rebuilding the
    matching from scratch or by the incremental greedy rule the paper's
    conclusion conjectures: keep every surviving edge and let freed
    capacity re-match, heaviest edge first.  Both repairs run on the
    flat {!Owp_matching.Bmatching}. *)

type event = Join of int | Leave of int

val apply : bool array -> event -> unit
(** [apply active ev] flips the peer's flag in [active].
    @raise Invalid_argument on a peer id out of range, a leave by an
    inactive peer or a join by an active one. *)

val capacity : Preference.t -> bool array -> int array
(** A node's quota when it is active, else 0: the active-induced
    problem every engine can solve unchanged. *)

val measure :
  Preference.t -> Weights.t -> bool array -> Owp_matching.Bmatching.t -> int * float * float
(** [(active nodes, eq. 1 total over them, eq. 9 weight)] of a matching
    over the preferences' graph, by {!Owp_matching.Bmatching.satisfaction}
    and {!Owp_matching.Bmatching.weight}. *)

val random_events :
  Owp_util.Prng.t -> universe:Graph.t -> initially_active:bool array -> steps:int -> event list
(** Alternates plausible joins and leaves (only leaves active peers,
    only joins inactive ones); keeps at least two peers active. *)

type repair = Full_rebuild | Incremental

type step = {
  event : event;
  active_nodes : int;
  total_satisfaction : float;  (** over active nodes, eq. 1 *)
  weight : float;  (** eq. 9 weight of the current matching *)
  added : int;  (** edges in the repaired matching, not in the previous one *)
  removed : int;  (** edges in the previous matching, not in the repaired one *)
}

val simulate :
  prefs:Preference.t ->
  initially_active:bool array ->
  events:event list ->
  repair:repair ->
  step list
(** Run the event sequence and return per-step measurements.  The
    initial matching is the heaviest-first pass from empty; each step
    reruns that pass over the same edge order, from the previous
    matching's edges between still-active peers ([Incremental]) or from
    empty ([Full_rebuild]).  Incremental repair never drops a surviving
    edge, so its [removed] counts the departed peer's edges.
    @raise Invalid_argument on malformed events ({!apply}). *)
