(** Empirical checkers for the paper's lemmas and theorems.

    Each check returns a boolean (or a measured ratio) so the test suite
    and the experiment harness can assert the proven guarantees on
    concrete instances. *)

val weighted_blocking_pair : Weights.t -> Owp_matching.Bmatching.t -> (int * int) option
(** A "weighted blocking pair" is an unselected edge (u,v) whose weight
    beats the lightest selected edge at {e both} endpoints (or an
    endpoint has residual capacity).  The output of LIC/LID admits none
    (this is the invariant behind Lemma 4/6); greedy ½-approximations in
    general also satisfy it. *)

val is_greedy_stable : Weights.t -> Owp_matching.Bmatching.t -> bool
(** No weighted blocking pair. *)

val half_approx_certificate : Weights.t -> Owp_matching.Bmatching.t -> bool
(** Verifies maximality + greedy stability — the structural conditions
    under which the charging argument of Theorem 2 applies. *)

val weight_ratio : Weights.t -> Owp_matching.Bmatching.t -> Owp_matching.Bmatching.t -> float
(** [weight_ratio w approx opt] = w(approx)/w(opt); 1.0 when both are
    empty. *)

val lemma1_bound : bmax:int -> float
(** ½(1 + 1/b_max), the Lemma 1 guarantee. *)

val theorem3_bound : bmax:int -> float
(** ¼(1 + 1/b_max), the end-to-end guarantee of Theorem 3. *)

val static_vs_full_ratio : Preference.t -> Owp_matching.Bmatching.t -> float
(** S_static / S for a concrete matching (Lemma 1's measured quantity);
    1.0 when total satisfaction is 0. *)
