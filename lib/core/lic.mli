(** LIC — Local Information-based Centralized algorithm (paper Alg. 2).

    Repeatedly selects a {e locally heaviest} edge from the pool of
    available edges (an edge beating every pool edge that shares exactly
    one endpoint, eq. 3/13), removes it, decrements both endpoints'
    quota counters and drops all edges of saturated nodes from the pool.
    Theorem 2: the result is a ½-approximation of the maximum-weight
    many-to-many matching.

    Note: the paper's pseudocode line 2 initialises [counter(v) := d_v];
    consistently with the surrounding text and Lemma 6 this must be the
    connection quota [b_v], which is what we use (documented in
    DESIGN.md).

    Lemma 6 implies the selected edge {e set} does not depend on which
    locally heaviest edge is taken at each step.  This module holds the
    selection rules that witness it (E4 and the test oracle of
    {!Lic_indexed}); the [lic] engine of {!Run_config} is
    {!Lic_indexed}, which locks the same edge set. *)

type strategy =
  | Heaviest_first
      (** always take the globally heaviest pool edge (it is in
          particular locally heaviest): the global greedy scan,
          {!Owp_matching.Greedy.run} *)
  | Climbing
      (** from each pool edge in id order, climb to strictly heavier
          pool neighbours until a local maximum — the genuinely local
          selection rule *)
  | Random_climb of Owp_util.Prng.t
      (** [Climbing] from the seeds in a uniformly random order *)

val run :
  ?strategy:strategy ->
  Weights.t ->
  capacity:int array ->
  Owp_matching.Bmatching.t
(** Defaults to [Heaviest_first].  The result is unchecked; assert
    invariants with {!Owp_check.Checker.run}. *)
