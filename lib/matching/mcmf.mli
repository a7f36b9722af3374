(** Minimum-cost flow on directed networks (successive shortest paths).

    Substrate for the exact bipartite b-matching solver: maximum-weight
    bipartite b-matching reduces to a min-cost flow where matching an
    edge costs its negated weight.  Costs may be negative, so path
    search uses Bellman–Ford; capacities are integers, costs floats.

    Complexity is O(F · V · E) where F is the total flow — fine for the
    exact-baseline instance sizes used in the experiments. *)

type t

val create : int -> t
(** [create n] builds an empty network on vertices [0..n-1]. *)

val add_edge : t -> src:int -> dst:int -> capacity:int -> cost:float -> int
(** Adds a directed edge; returns a handle usable with {!flow_on}. *)

val min_cost_flow : t -> source:int -> sink:int -> int * float
(** Pushes flow along successive cheapest source→sink paths for as long
    as the cheapest path has strictly negative cost (i.e. it is
    profitable).  Returns (total flow, total cost). *)

val flow_on : t -> int -> int
(** Current flow on an edge handle. *)
