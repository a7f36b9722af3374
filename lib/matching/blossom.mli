(** Edmonds' maximum cardinality matching ("Paths, trees and flowers" —
    the paper's reference [2]).

    Finds a matching with the greatest number of edges in a general
    graph by growing alternating trees and shrinking odd cycles
    (blossoms).  O(V·E·α) with the union–find-based blossom contraction
    used here — ample for the experiment sizes.

    Used as the {e coverage} baseline: the maximum number of pairings
    possible at all (quota 1), against which the satisfaction-driven
    algorithms' match counts are compared (experiment E11c). *)

val maximum_matching : Graph.t -> Bmatching.t
(** A maximum-cardinality matching as a unit-capacity {!Bmatching.t}. *)
