(** Satisfaction local search — an extension beyond the paper.

    Theorem 3 guarantees LID lands within ¼(1+1/b_max) of the optimal
    total satisfaction; this module measures how much of the remaining
    gap a cheap centralized post-pass can close (ablation experiment
    E14).  Moves considered:

    - {e add}: select a free edge (adding a connection always increases
      both endpoints' satisfaction);
    - {e swap}: select an unmatched edge, dropping the worst current
      partner at each saturated endpoint, when the change increases the
      {e total} satisfaction (unlike blocking-pair dynamics, which only
      asks the two endpoints and may cycle, this strictly increases a
      bounded global objective, so it terminates).

    The result is feasibility-preserving and never worse than the
    input. *)

val local_search :
  ?max_moves:int ->
  Preference.t ->
  Owp_matching.Bmatching.t ->
  Owp_matching.Bmatching.t * int
(** [local_search prefs m] returns the improved matching and the number
    of moves applied.  [max_moves] defaults to [10 * m] edges. *)

(* owp-lint: allow dead-export — test seam: the gain local_search ranks by *)
val move_gain : Preference.t -> Owp_matching.Bmatching.t -> int -> float
(** Satisfaction gain of applying the add/swap move for the given
    unmatched edge id (0 if the edge is already matched). *)
