(** Random and structured graph generators.

    These produce the overlay topologies used throughout the experiments:
    Erdős–Rényi and fixed-size random graphs, preferential attachment
    (Barabási–Albert), small-world rings (Watts–Strogatz), random
    geometric graphs (the "distance metric" scenario of the paper's
    introduction), grids/tori, bipartite and power-law configuration
    models.  All take an explicit {!Owp_util.Prng.t} for reproducibility. *)

val gnp : Owp_util.Prng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi [G(n,p)], geometric edge skipping, O(n + m) expected. *)

val gnm : Owp_util.Prng.t -> n:int -> m:int -> Graph.t
(** Uniform graph with exactly [m] distinct edges.
    @raise Invalid_argument if [m] exceeds [n(n-1)/2]. *)

(* owp-lint: allow dead-export — shared test input *)
val complete : int -> Graph.t

val barabasi_albert : Owp_util.Prng.t -> n:int -> m:int -> Graph.t
(** Preferential attachment: each arriving node attaches to [m] existing
    nodes chosen proportionally to degree.  Requires [n > m >= 1]. *)

val watts_strogatz : Owp_util.Prng.t -> n:int -> k:int -> beta:float -> Graph.t
(** Ring lattice where each node links to its [k] nearest neighbours on
    each side, then each lattice edge is rewired with probability
    [beta].  Requires [n > 2 * k]. *)

val random_geometric :
  Owp_util.Prng.t -> n:int -> radius:float -> Graph.t * (float * float) array
(** [n] uniform points in the unit square, connected when their Euclidean
    distance is below [radius].  Also returns the coordinates (used by the
    latency-metric preference generators). *)

val torus : width:int -> height:int -> Graph.t

val random_bipartite : Owp_util.Prng.t -> left:int -> right:int -> p:float -> Graph.t
(** Nodes [0..left-1] on one side, [left..left+right-1] on the other. *)

val configuration_power_law :
  Owp_util.Prng.t -> n:int -> exponent:float -> min_degree:int -> Graph.t
(** Configuration-model graph with power-law degree targets
    [P(d) ∝ d^-exponent]; self-loops and parallel edges from the pairing
    are discarded, so realised degrees are close to (at most) targets. *)

(* owp-lint: allow dead-export — shared test input *)
val ring : int -> Graph.t

(* owp-lint: allow dead-export — shared test input *)
val star : int -> Graph.t

(* owp-lint: allow dead-export — shared test input *)
val path : int -> Graph.t
