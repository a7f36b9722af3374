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

val min_cost_flow : t -> source:int -> sink:int -> ?max_flow:int -> unit -> int * float
(** Pushes flow along successive cheapest source→sink paths for as long
    as the cheapest path has strictly negative cost (i.e. it is
    profitable), stopping earlier if [max_flow] units have been pushed.
    Returns (total flow, total cost). *)

(* owp-lint: allow dead-export — held: only its test reads it; item 9b *)
val min_cost_max_flow : t -> source:int -> sink:int -> int * float
(** Pushes flow along cheapest paths until the sink is unreachable,
    regardless of path cost sign (classic min-cost max-flow). *)

val flow_on : t -> int -> int
(** Current flow on an edge handle. *)
