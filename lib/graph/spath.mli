(** Weighted shortest paths (Dijkstra over non-negative edge lengths).

    Used by the overlay-quality analysis: once peers connect to their
    preferred neighbours, how much longer are routes through the overlay
    than through the full potential graph (the {e stretch})? *)

(* owp-lint: allow dead-export — test seam: the distances path_stretch divides *)
val dijkstra :
  ?allowed:(int -> bool) -> Graph.t -> length:(int -> float) -> int -> float array
(** [dijkstra g ~length src] returns per-node distances from [src],
    where [length eid] is the non-negative length of an edge, using
    only edges with [allowed eid] (default: all).  Unreachable nodes
    get [infinity].  @raise Invalid_argument on a negative length. *)

val path_stretch :
  Graph.t ->
  length:(int -> float) ->
  subgraph:(int -> bool) ->
  samples:(int * int) list ->
  float list
(** For each sampled (src, dst) pair, the ratio
    (distance using only [subgraph] edges) / (distance in the full
    graph).  Pairs unreachable in the subgraph yield [infinity]; pairs
    unreachable in the full graph are skipped. *)
