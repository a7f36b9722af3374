(** Stable fixtures (many-to-many stable matching) via blocking-pair
    dynamics.

    The paper frames overlay construction as the stable fixtures
    problem [Irving–Scott 2007].  Solving fixtures exactly requires the
    full rotation machinery; what the overlay literature actually runs —
    and what the paper's reference [13] (Mathieu) analyses — is
    {e better-response dynamics}: repeatedly satisfy a blocking pair
    (connect the two nodes, each dropping its worst partner if
    saturated).  On acyclic preference systems this provably converges
    to the unique stable solution; on cyclic systems it may loop, which
    is precisely the paper's motivation for switching the objective to
    satisfaction maximisation.  The iteration cap makes divergence
    observable instead of fatal (experiment E8). *)

type outcome = {
  matching : Owp_matching.Bmatching.t;
  stable : bool;  (** no blocking pair remained *)
  rounds : int;  (** blocking-pair satisfactions performed *)
}

val satisfy_blocking_pairs :
  ?max_rounds:int -> Preference.t -> Owp_matching.Bmatching.t -> outcome
(** Run the dynamics from a given matching, each round satisfying the
    first blocking pair in edge-id order.  [max_rounds] defaults to
    [50 · m]. *)

val solve : ?max_rounds:int -> Preference.t -> outcome
(** Dynamics from the empty matching using the preference quotas. *)
