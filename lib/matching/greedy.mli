(** Globally greedy many-to-many weighted matching.

    Scans all edges in decreasing weight order (under the strict total
    order of {!Owp_prefs.Weights.compare_edges}) and selects every edge
    whose endpoints both still have residual capacity.  This is the
    paper's "optimum greedy algorithm (OPT)" comparator of Theorem 2,
    and — by the classic greedy argument — itself a ½-approximation of
    the true maximum weight b-matching. O(m log m). *)

val run : Weights.t -> capacity:int array -> Bmatching.t

(* owp-lint: allow dead-export — reference for Churn's rebuilds *)
val run_restricted : Weights.t -> capacity:int array -> allowed:(int -> bool) -> Bmatching.t
(** Same, considering only edges for which [allowed eid] holds (the
    churn tests' reference for a rebuild over the active peers). *)
