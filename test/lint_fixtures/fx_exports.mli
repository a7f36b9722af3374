(* dead-export fixture: test_lint pins each finding's line and message *)

val unread : int -> int

val tested : int -> int

(* owp-lint: allow dead-export — test seam: the allowed twin *)
val allowed : int -> int
