(** Shared plumbing for the experiment runners. *)

module Tbl = Owp_util.Tablefmt

type exp = {
  id : string;  (** e.g. "E3" *)
  title : string;
  paper_ref : string;  (** the lemma/theorem/figure being reproduced *)
  run : quick:bool -> Tbl.t list;
      (** [quick] trims sweep sizes for CI; full mode regenerates the
          EXPERIMENTS.md numbers *)
}

val total_satisfaction : Owp_prefs.Preference.t -> Owp_matching.Bmatching.t -> float

val run_lid : Workloads.instance -> Owp_core.Stack.report
val run_lic : Workloads.instance -> Owp_matching.Bmatching.t
val run_greedy : Workloads.instance -> Owp_matching.Bmatching.t

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
