(** Preference systems (§2 of the paper).

    A preference system attaches to every node [i] of a graph a strict
    total order [L_i] over its neighbourhood [Γ_i] (the preference list,
    best first; [R_i(j) ∈ {0..|L_i|-1}] with 0 the most desirable) and a
    connection quota [b_i].  Quotas are clamped to [b_i <= |L_i|] as the
    paper assumes; isolated nodes get quota 0 and satisfaction 0. *)

type t
(** Lists and ranks are flat int arrays over the graph's CSR offsets:
    node [i]'s list, best first, fills the slots of [i]'s adjacency row,
    and each slot also holds the rank of the neighbour at that slot. *)

val create : Graph.t -> quota:int array -> lists:int array array -> t
(** [lists.(i)] must be a permutation of node [i]'s neighbourhood,
    best first.  O(n + m): each entry's slot is found in O(1).
    @raise Invalid_argument otherwise. *)

val random : Owp_util.Prng.t -> Graph.t -> quota:int array -> t
(** Uniformly random preference lists — the adversarial default. *)

val of_metric : Graph.t -> quota:int array -> Metric.t -> t
(** Ranks each neighbourhood by decreasing metric score, breaking score
    ties by lower node id. *)

val of_scores : Graph.t -> quota:int array -> (int -> int -> float) -> t

val uniform_quota : Graph.t -> int -> int array
(** Constant quota vector [b] for every node (clamping happens in
    {!create}). *)

val graph : t -> Graph.t
val quota : t -> int -> int
val max_quota : t -> int
(** The paper's [b_max] (1 when the graph has no connectable node). *)

val list : t -> int -> int array
(** Preference list of a node, best first.  Fresh O(deg) array. *)

val list_len : t -> int -> int
val rank : t -> int -> int -> int
(** [rank t i j] = [R_i(j)], by a binary search over [i]'s adjacency
    row (O(log deg)).  @raise Not_found if [j ∉ Γ_i]. *)

val slot_rank : t -> int -> int
(** [slot_rank t s] is [R_i(j)] for the neighbour [j] at slot [s] of
    [i]'s adjacency row (see {!Graph.t}): the table {!rank} reads after
    its binary search.  Per-node passes over a row read ranks in O(1). *)

val preferred : t -> int -> int -> int -> bool
(** [preferred t i j k]: does [i] strictly prefer [j] over [k]? *)

(** {2 Satisfaction accounting} *)

val satisfaction : t -> int -> int list -> float
(** [satisfaction t i conns] — eq. 1 over the connections [conns ⊆ Γ_i].
    Isolated nodes (and quota-0 nodes) yield 0. *)

val total_satisfaction : t -> int list array -> float
(** Sum of eq. 1 over all nodes, given per-node connection lists. *)

(* owp-lint: allow dead-export — reference: eq. 6, which eq. 9 weights sum to *)
val total_static_satisfaction : t -> int list array -> float

(** {2 Structure of the preference system} *)

val is_acyclic : t -> bool
(** No preference cycle: no cyclic sequence [n_0 .. n_{k-1}] (k >= 3) of
    pairwise-adjacent consecutive nodes where each [n_i] strictly prefers
    [n_{i+1}] over [n_{i-1}] — the destabilising structure identified by
    Gai et al.  O(Σ_v deg(v)²) worst case. *)
