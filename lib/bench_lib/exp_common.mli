(** Shared plumbing for the experiment runners. *)

type exp = {
  id : string;  (** e.g. "E3" *)
  title : string;
  paper_ref : string;  (** the lemma/theorem/figure being reproduced *)
  run : quick:bool -> Owp_util.Tablefmt.t list * (string * bool) list;
      (** the tables and the named claims they back, each with whether
          it holds; [quick] trims sweep sizes for CI, full mode
          regenerates the EXPERIMENTS.md numbers.  A claim never reads
          a wall time. *)
}

val total_satisfaction : Owp_prefs.Preference.t -> Owp_matching.Bmatching.t -> float

val gnm : seed:int -> deg:float -> n:int -> quota:int -> Workloads.instance
(** [Workloads.make] on G(n, m) with average degree [deg] and random
    preference lists: the instance most experiments sweep. *)

val run_lid : Workloads.instance -> Owp_core.Stack.report
val run_lic : Workloads.instance -> Owp_matching.Bmatching.t
val run_greedy : Workloads.instance -> Owp_matching.Bmatching.t

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], counting a zero denominator as 1: the
    ratio cell of every engine-vs-reference table. *)

val yn : bool -> string
(** ["yes"] or ["NO"]: the verdict cell of the experiment tables. *)

val quiescence_cell : Owp_core.Stack.report -> string
(** ["yes"] when every node quiesced (Lemma 5); otherwise the straggler
    node ids from the report's structured quiescence violations. *)

val time : (unit -> 'a) -> 'a * float
(** Result plus wall-clock milliseconds. *)

type spread = { min : float; median : float; iqr : float }
(** Wall-clock milliseconds over k samples. *)

val sample : k:int -> (unit -> unit -> 'a) -> 'a * spread
(** [sample ~k setup] times [k] runs.  Each calls [setup ()] off the
    clock, runs a major collection, then times the thunk [setup]
    returned, so [fun () () -> work] samples [work] alone.  Returns the
    last run's result and the min, median and IQR of the [k] walls.
    @raise Invalid_argument when [k < 1]. *)

val mean : float list -> float
val minimum : float list -> float
val header : exp -> string
