(** Edge weights for the reduction to weighted matching (§4, eq. 9).

    The modified b-matching problem becomes a many-to-many maximum
    weighted matching once every edge [(i,j)] carries the symmetric
    weight

    {v w(i,j) = ΔS̄_i(j) + ΔS̄_j(i)
              = (1 - R_i(j)/L_i)/b_i + (1 - R_j(i)/L_j)/b_j v}

    The paper requires {e unique} edge weights so that locally heaviest
    edges are unambiguous, breaking ties by node identities; here the
    strict total order [compare_edges] implements exactly that
    (weight first, then lexicographic endpoints), so algorithms never
    depend on floating-point uniqueness. *)

type combiner = Sum | Min | Product
(** [Sum] is the paper's eq. 9.  [Min] and [Product] are ablation
    combiners (E12/DESIGN §"design choices"): they also yield symmetric
    weights but lose the additive decomposition Lemma 2 relies on. *)

type t

val of_preference : ?combiner:combiner -> Preference.t -> t
(** Weights for every edge of the preference system's graph.  Edges with
    a quota-0 endpoint get the contribution 0 from that endpoint. *)

val half : Preference.t -> int -> int -> float
(** [half prefs i j] is ΔS̄_i(j) of eq. 5, node [i]'s half of
    [w(i,j)]: 0 when [i] has quota 0.  {!of_preference} combines the two
    halves of every edge from the same definition, read by adjacency
    slot.  @raise Not_found if [j ∉ Γ_i]. *)

val of_array : Graph.t -> float array -> t
(** Wrap externally supplied weights (benchmarks, tests).  Ties are
    legal ({!compare_edges} breaks them).
    @raise Invalid_argument on an arity mismatch, or on a NaN or
    infinite weight (the message names the edge id and endpoints). *)

val graph : t -> Graph.t
val weight : t -> int -> float
(** Weight by edge id. *)

val unsafe_weights : t -> float array
(** The physical weight-by-edge-id array, {e shared, not copied} — the
    caller must treat it as read-only.  Exists for index engines whose
    inner loops cannot afford a closure call (or an O(m) snapshot) per
    comparison; everything else should go through {!weight}. *)

val compare_edges : t -> int -> int -> int
(** Strict total order on edge ids: by weight, ties by lower endpoint,
    then upper endpoint, then id.  [compare_edges t e f = 0] iff [e = f]. *)

val heavier : t -> int -> int -> bool
(** [heavier t e f] iff [e] beats [f] in the total order. *)

val distinct_weights : t -> int
(** Number of distinct raw float weights (diagnostic for E12). *)
