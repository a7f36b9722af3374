(** The rule registry, mirroring {!Owp_check.Checker}: a fixed list of
    named rules, each with a one-line doc string, looked up by name for
    [--rule] filtering and listed by [owp lint --list]. *)

val all : Rule.t list
(** Every rule, in display order. *)

val find : string -> Rule.t option
