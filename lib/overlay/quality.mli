(** Connection-quality reporting for a matched overlay. *)

type t = {
  nodes : int;  (** nodes with a non-empty preference list *)
  total : float;  (** Σ S_i *)
  mean : float;
  min : float;
  p05 : float;
  median : float;
  jain : float;  (** Jain fairness index of the satisfaction profile *)
  saturated_fraction : float;  (** nodes that filled their whole quota *)
  fully_satisfied_fraction : float;  (** nodes with S_i = 1 (top-b set) *)
}

val measure : Preference.t -> Owp_matching.Bmatching.t -> float array -> t
(** [measure prefs m profile] summarizes the per-node satisfaction
    [profile] of [m] (eq. 1, e.g. {!Owp_core.Pipeline.satisfaction_profile}
    or the outcome's [profile]) over the nodes with a non-empty list and
    a positive quota; [m] supplies the saturation counts.  Eq. 1 is not
    evaluated here. *)

val pp : Format.formatter -> t -> unit
