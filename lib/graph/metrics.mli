(** Structural graph metrics, used to characterise generated workloads in
    experiment tables and to sanity-check the generators. *)

val connected_components : Graph.t -> int array * int
(** [(label, count)]: per-node component label in [0..count-1]. *)

val is_connected : Graph.t -> bool

(* owp-lint: allow dead-export — test seam: the BFS the diameter bound sweeps *)
val bfs_distances : Graph.t -> int -> int array
(** Hop distances from a source; unreachable nodes get [-1]. *)

val eccentricity_lower_bound : Graph.t -> int
(** Double-sweep BFS lower bound on the diameter (exact on trees). *)

val average_degree : Graph.t -> float
val density : Graph.t -> float

val global_clustering : Graph.t -> float
(** Transitivity: 3 × triangles / open triads; 0 for triangle-free. *)

val triangle_count : Graph.t -> int

val degree_assortativity : Graph.t -> float
(** Pearson correlation of endpoint degrees over edges (Newman's r):
    positive for hub-to-hub mixing, negative for hub-to-leaf (typical of
    BA graphs), 0 when degrees are uncorrelated or undefined (fewer than
    two edges, or constant degrees — e.g. a torus). *)
