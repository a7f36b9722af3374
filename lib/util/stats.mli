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

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance; 0 when fewer than two samples. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation between
    order statistics.  @raise Invalid_argument on an empty array. *)

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)

val histogram : float array -> bins:int -> (float * float * int) array
(** [(lo, hi, count)] per bin over the sample range. *)
