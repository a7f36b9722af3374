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

val jobs : int ref
(** Domain budget for parallel sweeps (default 1 = sequential).  Set by
    [owp bench --jobs] and the bench harness before experiments run. *)

val trial_map : ('a -> 'b) -> 'a list -> 'b list
(** {!Owp_util.Pool.map_list} over the configured {!jobs}: order- and
    content-deterministic whatever the domain count, so trial loops can
    switch to it freely.  Each trial must be self-contained (own PRNG
    stream, no shared mutable state). *)

val time : (unit -> 'a) -> 'a * float
(** Result plus wall-clock milliseconds. *)

val mean : float list -> float
val minimum : float list -> float
val header : exp -> string
