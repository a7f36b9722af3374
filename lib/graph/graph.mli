(** Undirected simple graphs in compressed sparse row (CSR) form.

    A graph is built incrementally through a {!Builder} and then frozen
    into flat int arrays.  Nodes are the integers [0..n-1]; edges carry
    dense identifiers [0..m-1] (first-insertion order) so that
    algorithms can attach per-edge data (weights, matching flags) in
    flat arrays.

    Node [u]'s adjacency row is the slot range [off.(u) .. off.(u+1)-1]
    of [nbr] and [eid]: slot [s] holds the neighbour [nbr.(s)], rows
    sorted ascending, joined by the edge [eid.(s)].  Per-node data over
    the same offsets (preference lists, ranks, heap slices) indexes by
    slot.  Edge [e] joins [eu.(e) < ev.(e)].  The accessors read the
    arrays in place; {!neighbors}, {!neighbor_nodes} and
    {!edge_endpoints} build fresh values for cold code.

    Self-loops are rejected and parallel edges are coalesced: the overlay
    model of the paper (§2) is an undirected simple graph [G(V,E)]. *)

type t = private {
  n : int;
  off : int array;  (** [n + 1] row offsets; [off.(n) = 2m] *)
  nbr : int array;  (** [2m] neighbour per slot, ascending within a row *)
  eid : int array;  (** [2m] edge id per slot *)
  eu : int array;  (** [m] lower endpoint per edge id *)
  ev : int array;  (** [m] upper endpoint per edge id *)
}
(** The arrays are the graph's own, shared with every reader: read them
    in loops that cannot afford a call per entry, never mutate them. *)

module Builder : sig
  type graph := t
  type t

  val create : ?edges:int -> int -> t
  (** [create n] starts an empty graph on [n] nodes.  [edges] (default
      0) is a size hint: the builder starts with room for that many
      edges, so adding them never regrows the key set or the endpoint
      arrays.  It does not bound the edge count or change any edge id.
      @raise Invalid_argument when [n < 0] or [edges < 0]. *)

  val add_edge : t -> int -> int -> bool
  (** [add_edge b u v] inserts the undirected edge {u,v}.  Returns
      [false] (and does nothing) when the edge already exists.
      Amortised O(1): an open-addressed set of packed [u * n + v] keys.
      @raise Invalid_argument on self-loops or out-of-range endpoints. *)

  val mem_edge : t -> int -> int -> bool
  val edge_count : t -> int

  val build : t -> graph
  (** O(n + m): two counting-sort passes, no comparison sort. *)
end

val node_count : t -> int
val edge_count : t -> int

val edge_u : t -> int -> int
(** Lower endpoint of an edge id, O(1). *)

val edge_v : t -> int -> int
(** Upper endpoint of an edge id, O(1). *)

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of the edge with the given id.
    Allocates the pair. *)

val degree : t -> int -> int
(** O(1). *)

val neighbors : t -> int -> (int * int) array
(** [neighbors g u] is a fresh O(deg) array of [(v, edge_id)] pairs,
    sorted by [v]: a boxed view of [u]'s row for cold code.  Loops read
    the row's slots or use {!iter_neighbors}. *)

val neighbor_nodes : t -> int -> int array
(** Just the neighbour ids of [u], sorted. Fresh O(deg) array. *)

val find_slot : t -> int -> int -> int
(** [find_slot g u v] is the slot of [v] in [u]'s row, or [-1] when
    they are not adjacent (binary search, O(log deg)). *)

val find_edge : t -> int -> int -> int option
(** Edge id joining two nodes, if present (binary search, O(log deg)). *)

val mem_edge : t -> int -> int -> bool

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f eid u v] for every edge, [u < v]. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v eid] for each neighbour of [u], in
    row order (ascending [v]).  Allocation-free. *)

val max_degree : t -> int

(* owp-lint: allow dead-export — shared test input *)
val of_edge_list : int -> (int * int) list -> t
(** Convenience constructor; duplicates are coalesced. *)

val induced_subgraph : t -> int array -> t * int array
(** [induced_subgraph g nodes] relabels [nodes] to [0..k-1] and keeps the
    edges among them.  Returns the subgraph and the old-id-of-new-id map. *)
