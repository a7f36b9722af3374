(** Indexed LIC — the [lic] engine of {!Run_config}, locally heaviest
    edge selection at scale.

    {!Lic} implements the paper's selection rule directly: finding the
    heaviest rival of an edge rescans both endpoints' full neighbour
    lists, O(Δ) per climb step, which dominates the run time on large
    dense overlays.  This engine keeps a {e per-node max-weight edge
    index} instead: for every node, a lazy-deletion binary max-heap over
    the flat incident edge ids, ordered by the same strict total order
    as {!Weights.compare_edges}.  The heaviest available rival of an
    edge is then the heavier of its two endpoints' heap tops, O(log Δ)
    amortised — dead entries (selected edges, edges of saturated nodes)
    are popped on first contact and never re-enter, so the whole greedy
    selection costs O(m log m) total instead of O(m·Δ).

    By Lemma 6 the locked edge set does not depend on which locally
    heaviest edge is taken at each step, so this engine returns
    {e exactly} the edge set of {!Lic.run} (any strategy); the test
    suite and experiment E23 verify that equality on random workloads
    while E23 measures the speedup. *)

val run : Weights.t -> capacity:int array -> Owp_matching.Bmatching.t
(** Same contract as {!Lic.run}: greedy locally-heaviest selection until
    the pool is exhausted.  The result is unchecked; assert invariants
    with {!Owp_check.Checker.run}. *)
