(** Composable invariant diagnostics for overlay matchings.

    A {!t} is a named diagnostic that inspects an {!instance} — a graph
    with eq. 9 weights, a capacity vector, optionally the preference
    system the weights came from, and a {e raw} candidate edge set — and
    returns structured {!Violation.t} reports.  The edge set is a plain
    id list rather than a validated {!Owp_matching.Bmatching.t} exactly
    so that corrupted matchings (quota overflows, duplicated edges) can
    be represented and diagnosed instead of rejected at construction.

    The built-in registry covers the paper's structural guarantees:
    quota feasibility, eq. 9 weight symmetry, satisfaction range
    [S_i ∈ [0,1]], absence of weighted blocking pairs (the Lemma 4/6
    invariant), maximality, and measured Theorem 2 / Theorem 3 bound
    certificates against the exact optimum on small instances. *)

type accounting = private {
  listed : int array;
      (** per edge id, how many times [edges] lists it (0 = unselected);
          out-of-range ids are not counted *)
  cover : int array;
      (** per node, its listed connections, with multiplicity: a
          duplicated id counts twice toward the quota *)
  bad : int list;
      (** the ids that are out of range or listed before, in list
          order *)
  feasible : bool;
      (** the capacity vector has one entry per node, [bad] is empty and
          every cover count is within its capacity *)
}
(** One pass over the raw edge list: what every checker needs to know
    about [edges], derived once instead of once per checker. *)

type instance = private {
  graph : Graph.t;
  weights : Weights.t;
  capacity : int array;
  prefs : Preference.t option;
      (** a preference system on [graph], needed by the eq. 9 /
          satisfaction / Theorem 3 checkers; checkers that need it pass
          vacuously when absent *)
  edges : int list;  (** candidate edge ids, possibly infeasible *)
  accounting : accounting Lazy.t;
      (** forced at most once, by the first checker that runs; every
          checker reads it instead of re-deriving the selection, the
          cover counts, the bad ids or feasibility *)
  blocking : (int * int * int) list Lazy.t;
      (** every weighted blocking pair [(eid, u, v)], in edge-id order;
          forced at most once, shared by [blocking-pair] and
          [theorem2] *)
  augmenting : (int * int * int) list Lazy.t;
      (** every unselected edge with residual capacity at both
          endpoints, in edge-id order; forced at most once, shared by
          [maximality] and [theorem2] *)
}
(** Built only by {!instance} and {!of_matching}, so the lazy fields
    always describe [edges]. *)

val instance :
  ?prefs:Preference.t -> Weights.t -> capacity:int array -> edges:int list -> instance

val of_matching : ?prefs:Preference.t -> Weights.t -> Owp_matching.Bmatching.t -> instance
(** Instance wrapping an already-validated matching (capacities are
    taken from the matching). *)

val lightest_selected : Graph.t -> Weights.t -> int array -> int array
(** [lightest_selected g w listed] is, for every node of [g], its lightest
    incident edge [e] with [listed.(e) > 0] under {!Weights.heavier}, or [-1]
    when it has none — one pass over the edges, shared by the
    blocking-pair checks here and in {!Byzantine}. *)

type t = {
  name : string;
  doc : string;
  run : instance -> Violation.t list;
}

(** {2 The registry}

    In reporting order, by name:
    - [edge-validity]: edge ids are in range and not duplicated;
    - [quota]: every node is covered at most [capacity.(i)] times (§2);
    - [weight-symmetry]: eq. 9, [w(i,j) = ΔS̄_i(j) + ΔS̄_j(i)], recomputed
      from each owner's {!Preference.list} positions, so it reads neither
      the rank table nor {!Weights.of_preference} (vacuous without
      [prefs]);
    - [satisfaction-range]: eq. 1, [S_i ∈ [0, 1]] and finite for every
      node, from cover counts and rank sums (vacuous without [prefs]);
    - [blocking-pair]: no unselected edge beats the lightest selected
      edge at both endpoints (or finds residual capacity there) — the
      Lemma 4/6 invariant; reports every blocking pair;
    - [maximality]: no unselected edge has residual capacity at both
      endpoints;
    - [theorem2]: [w(M) ≥ ½ · w(OPT)] against the exact optimum up to
      {!exact_weight_limit} edges, above that the structural premise
      (maximality + greedy stability);
    - [theorem3]: [S(M) ≥ ¼(1 + 1/b_max) · S(OPT)] against the exact
      satisfaction optimum (vacuous without [prefs] or above
      {!exact_satisfaction_limit} edges). *)

(* owp-lint: allow dead-export — test seam: where theorem2 turns structural *)
val exact_weight_limit : int

(* owp-lint: allow dead-export — test seam: where theorem3 turns vacuous *)
val exact_satisfaction_limit : int

val all : t list
(** The full registry, in reporting order. *)

val names : string list

(** {2 Running checkers and reporting} *)

type entry = { checker : t; violations : Violation.t list }
type report = { entries : entry list }

val run : ?only:string list -> instance -> report
(** Run the registry (or the [only] subset, by name) on an instance.
    @raise Invalid_argument on an unknown checker name in [only]. *)

val ok : report -> bool
val violations : report -> Violation.t list
val violation_count : report -> int

exception Check_failed of report
(** Raised by {!assert_ok}; the payload carries the full report. *)

(* owp-lint: allow dead-export — held: only its test reads it; item 9b *)
val assert_ok : ?only:string list -> instance -> unit
val report_to_string : report -> string
