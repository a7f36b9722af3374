(** Anytime certificate for deadline-bounded (cutoff) LID runs.

    Floréen et al. ("Almost Stable Matchings in Constant Time",
    arXiv 0812.4893) show residual blocking pairs shrink linearly in
    the number of propose–accept rounds, which makes a round-budgeted
    LID a principled anytime algorithm: stop at the budget, serve the
    locked partial matching, and {e measure} what quiescence would
    have added.  This checker certifies one cutoff:

    {ol
    {- {b Feasibility} (hard): the served edge set is a valid
       sub-b-matching — edge ids in range, no duplicates, every node
       within its quota.  The freeze guarantees this by construction
       (locked edges only; tentative proposals released at both
       endpoints), and the certificate re-verifies it from scratch.}
    {- {b Residual blocking pairs} (measured): counted with the full
       Lemma 4/6 checker but reported as degradation, not failure —
       they are exactly what a larger budget buys down.}
    {- {b Retention} (measured, when the full-run reference is given):
       weight and satisfaction of the served matching as a fraction of
       the quiescent run on the same seed, plus the subset witness —
       on one seed the served matching must be a {e subset} of the
       full run's (the event prefix is identical, locks only grow), so
       a [false] witness voids the certificate.}} *)

type instance = {
  weights : Weights.t;  (** true symmetric weights (eq. 9) *)
  prefs : Preference.t option;
      (** enables the satisfaction figures; weight-only without *)
  capacity : int array;
  edges : int list;  (** the served (cutoff) matching, edge ids *)
  budget : float;  (** the virtual-time budget that expired *)
  reference : int list option;
      (** the quiescent full-run matching on the same seed, for the
          retention figures and the subset witness *)
}

val instance :
  ?prefs:Preference.t ->
  ?reference:int list ->
  Weights.t ->
  capacity:int array ->
  budget:float ->
  edges:int list ->
  instance
(** @raise Invalid_argument on a non-positive budget. *)

type certificate = {
  feasible : bool;  (** the hard claim: edge-validity + quota hold *)
  violations : Violation.t list;  (** infeasibility reports, else empty *)
  blocking_pairs : int;  (** residual blocking pairs (degradation) *)
  matched_edges : int;
  weight : float;  (** eq. 9 weight of the served matching *)
  satisfaction : float option;  (** total satisfaction, with [prefs] *)
  weight_retained : float option;
      (** served / reference weight, with [reference]; 1.0 when the
          reference is empty *)
  satisfaction_retained : float option;
      (** served / reference satisfaction, with both [prefs] and
          [reference] *)
  prefix_of_reference : bool option;
      (** with [reference]: is the served matching a subset of it? *)
  budget : float;
}

val check : instance -> certificate
(** Certify one cutoff.  Never raises on a malformed matching — the
    damage is reported in [violations] with [feasible = false]. *)

val certified : certificate -> bool
(** [feasible] and, when the reference is present, the subset witness
    — the claims the freeze must guarantee.  Blocking pairs and
    retention never void a certificate; they quantify it. *)

val to_string : certificate -> string
(** Multi-line rendering for the CLI. *)
