(** The paper's guarantees as numbers and one structural predicate, for
    the experiment harness and the pipeline's certificates. *)

val is_greedy_stable : Weights.t -> Owp_matching.Bmatching.t -> bool
(** No "weighted blocking pair": no unselected edge (u,v) whose weight
    beats the lightest selected edge at {e both} endpoints (or an
    endpoint has residual capacity).  The output of LIC/LID admits none
    (this is the invariant behind Lemma 4/6); greedy ½-approximations in
    general also satisfy it. *)

val lemma1_bound : bmax:int -> float
(** ½(1 + 1/b_max), the Lemma 1 guarantee. *)

val theorem3_bound : bmax:int -> float
(** ¼(1 + 1/b_max), the end-to-end guarantee of Theorem 3. *)
