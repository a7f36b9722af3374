(** Descriptive statistics over float samples, used by the experiment
    harness to aggregate per-seed measurements into table rows. *)

type summary = {
  n : int;
  mean : float;
  stddev : float; (* sample standard deviation; 0 when n < 2 *)
  min : float;
  max : float;
  median : float;
  p05 : float;
  p95 : float;
}

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation between
    order statistics.  @raise Invalid_argument on an empty array. *)

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)
