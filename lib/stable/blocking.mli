(** Blocking-pair analysis for many-to-many matchings.

    In the stable fixtures model (Irving–Scott; the paper's §2
    "generalized stable roommates"), an unmatched adjacent pair [(i,j)]
    {e blocks} a matching [M] iff each side would accept the other:
    node [i] is undersubscribed, or prefers [j] to its least preferred
    current partner — and symmetrically for [j].  A matching is stable
    iff it admits no blocking pair. *)

val blocks : Preference.t -> Owp_matching.Bmatching.t -> int -> int -> bool
(** [blocks prefs m i j] — does the (adjacent, unmatched) pair block?
    Returns [false] for matched or non-adjacent pairs. *)

val count_blocking_pairs : Preference.t -> Owp_matching.Bmatching.t -> int

(* owp-lint: allow dead-export — reference for Fixtures' stable verdicts *)
val is_stable : Preference.t -> Owp_matching.Bmatching.t -> bool

val worst_partner : Preference.t -> Owp_matching.Bmatching.t -> int -> int option
(** Least-preferred current partner of a node, if any. *)
