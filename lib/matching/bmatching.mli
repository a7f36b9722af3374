(** Many-to-many matchings (b-matchings).

    A b-matching on a graph with per-node capacities [b_i] is a subset of
    edges such that every node [i] is covered at most [b_i] times (§2 of
    the paper: connection quotas).  Values of this type are validated at
    construction: capacities hold by invariant.

    Representation: one selection byte per edge id, next to the matched
    degree of every node.  {!mem}, {!degree} and {!size} are O(1);
    {!connections} and {!satisfaction} scan the node's adjacency row,
    O(deg); {!edge_ids}, {!weight}, {!equal} and {!symmetric_difference}
    walk the bytes in ascending id order, O(m); the functional {!add}
    and {!remove} copy the bytes and the degrees, O(n + m). *)

type t

val of_edge_ids : Graph.t -> capacity:int array -> int list -> t
(** @raise Invalid_argument if an edge id is out of range, duplicated,
    or a capacity is exceeded. *)

val empty : Graph.t -> capacity:int array -> t

val extend : t -> int array -> t
(** [extend t order] walks the edge ids of [order] and selects each one
    not in [t] whose endpoints both have residual capacity: the greedy
    completion of [t], one O(n + m) copy plus the walk.
    @raise Invalid_argument if an id is out of range. *)

val graph : t -> Graph.t
val capacity : t -> int -> int
val size : t -> int
(** Number of selected edges. *)

val mem : t -> int -> bool
(** Is the edge id selected?  False for any id outside [[0, m)]. *)

val edge_ids : t -> int list
(** Selected edge ids, ascending. *)

(* owp-lint: allow dead-export — test seam: per-node cover count *)
val degree : t -> int -> int
(** Number of selected edges covering a node. *)

val residual : t -> int -> int
(** Remaining capacity of a node. *)

val connections : t -> int -> int list
(** Matched partner nodes of a node (with multiplicity 1 each: simple
    graph), ascending. *)

val connection_lists : t -> int list array
(** Per-node partner lists, as consumed by satisfaction accounting. *)

val satisfaction : Preference.t -> t -> int -> float
(** [satisfaction prefs m i] is eq. 1 for node [i] over its partners in
    [m], bit-identical to
    [Preference.satisfaction prefs i (connections m i)]: one scan of
    [i]'s adjacency row reading ranks by slot
    ({!Preference.slot_rank}).  Quota-0 and isolated nodes yield 0.
    @raise Invalid_argument if [prefs] is over another graph than [m]
    (physically), or [i] has more partners than its quota. *)

val weight : t -> Weights.t -> float
(** Total weight under the given weights (must share the graph). *)

val is_maximal : t -> bool
(** No unselected edge has residual capacity at both endpoints. *)

val equal : t -> t -> bool
(** Same selected edge set (graphs assumed identical). *)

val symmetric_difference : t -> t -> int list

val add : t -> int -> t
(** Functional insert. @raise Invalid_argument if infeasible or present. *)

val remove : t -> int -> t
(** @raise Invalid_argument if the edge is not selected. *)
