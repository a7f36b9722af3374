(** Phase 1 of the Irving–Scott stable fixtures algorithm.

    The proposal/rejection round of the many-to-many stable matching
    algorithm [7]: every player proposes down its preference list until
    it has [b_x] proposals held; a player holds its [b_y] best incoming
    proposals and rejects the rest (deleting the pair from both lists).
    The fixpoint yields the classic phase-1 table of directional
    semi-engagements.

    Used two ways here:

    - {!warm_start}: the pairs engaged in {e both} directions form
      a feasible b-matching — a principled warm start;
    - {!warm_solve}: phase 1 + blocking-pair dynamics from that warm
      start, which converges in far fewer rounds than from scratch on
      solvable instances (measured in E8's companion column). *)

(* owp-lint: allow dead-export — test seam: the start warm_solve climbs from *)
val warm_start : Preference.t -> Owp_matching.Bmatching.t
(** Phase 1's pairs held in both directions (capacity-feasible by
    construction of the holds). *)

val warm_solve :
  ?max_rounds:int -> ?rng:Owp_util.Prng.t -> Preference.t -> Fixtures.outcome
(** Blocking-pair dynamics seeded with {!warm_start}. *)
