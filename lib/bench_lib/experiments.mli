(** Registry of all reproduction experiments (see DESIGN.md's
    per-experiment index and EXPERIMENTS.md for paper-vs-measured). *)

val all : Exp_common.exp list
(** E0–E21 in order. *)

(* owp-lint: allow dead-export — test seam: the lookup run_one resolves ids by *)
val find : string -> Exp_common.exp option
(** Lookup by case-insensitive id, e.g. "e3". *)

val run_all : ?quick:bool -> ?json_dir:string -> out:Format.formatter -> unit -> unit
(** Execute every experiment and print its tables.  With [json_dir],
    additionally write one machine-readable [BENCH_<id>.json] per
    experiment into that (existing) directory. *)

val run_one : ?quick:bool -> ?json_dir:string -> out:Format.formatter -> string -> bool
(** Execute a single experiment by id; [false] if the id is unknown. *)
