(** Registry of all reproduction experiments (see DESIGN.md's
    per-experiment index and EXPERIMENTS.md for paper-vs-measured). *)

val all : Exp_common.exp list
(** Every experiment, in id order. *)

val find : string -> Exp_common.exp option
(** Lookup by case-insensitive id, e.g. "e3". *)

val run :
  ?quick:bool -> ?json_dir:string -> out:Format.formatter -> Exp_common.exp list ->
  (string * string) list
(** Execute the experiments in order and print each one's tables, then
    its claims as a last [claim | holds] table.  With [json_dir], also
    write one machine-readable [BENCH_<id>.json] per experiment, claims
    table included, into that (existing) directory.  Returns the claims
    that do not hold, as (experiment id, claim). *)
