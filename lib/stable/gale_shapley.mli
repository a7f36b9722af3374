(** Gale–Shapley deferred acceptance on bipartite preference systems.

    The classic baseline (paper reference [4]).  Works on any bipartite
    subset of nodes with capacities (many-to-many deferred acceptance:
    proposers propose down their lists; reviewers hold their best
    [b] proposals so far and reject the rest).  The result is
    pairwise-stable; with unit capacities it is the proposer-optimal
    stable marriage. *)

(* owp-lint: allow dead-export — kept until ROADMAP item 7 decides *)
val run : Preference.t -> proposers:int array -> Owp_matching.Bmatching.t
(** [run prefs ~proposers] — every edge must join a proposer and a
    non-proposer (bipartiteness is the caller's responsibility and is
    checked).  @raise Invalid_argument if some edge joins two proposers
    or two reviewers. *)

(* owp-lint: allow dead-export — kept until ROADMAP item 7 decides *)
val marriage :
  Preference.t -> proposers:int array -> (int * int) list
(** Unit-capacity convenience wrapper returning (proposer, reviewer)
    pairs (ignores the preference system's quotas and uses 1). *)
