(** Irving's stable roommates algorithm (one-to-one, complete lists).

    The paper's b-matching problem generalises stable roommates; this
    module provides the exact classical solver as a baseline and as the
    unit-capacity stability oracle.  Input is a complete preference
    system: [prefs.(i)] is a permutation of all other agents, best
    first.  Output is a perfect stable matching when one exists
    ([n] must be even for a perfect matching).

    Runs Irving's two phases: proposal/reduction, then rotation
    elimination.  O(n²). *)

type result =
  | Stable of int array  (** [partner.(i)] for every agent *)
  | No_stable_matching

(* owp-lint: allow dead-export — kept until ROADMAP item 7 decides *)
val solve : int array array -> result
(** @raise Invalid_argument if the lists are not complete permutations. *)

(* owp-lint: allow dead-export — kept until ROADMAP item 7 decides *)
val is_stable_assignment : int array array -> int array -> bool
(** Does the involution [partner] admit no blocking pair under the given
    complete lists?  (Diagnostic used by tests.) *)
