(** Structured suppression comments.

    The analyzer works on typedtrees, which carry no comments, so
    suppressions are recovered from the source text (dune copies every
    source into [_build], so the file recorded in the [.cmt] is always
    readable next to it).  Two directives exist, both inside ordinary
    comments:

    - [(* owp-lint: allow RULE[, RULE...] — reason *)] — suppress the
      named rules on the same line and on the line immediately below
      (so a directive on its own line covers the next statement).
    - [(* owp-lint: pure *)] — tag the module as part of the pure
      protocol core; the [pure-core] rule runs only on tagged modules.
      The tag must open the file.

    An [.mli] is read the same way: a directive there covers the
    [val] line it sits on or precedes.

    Everything after the rule names (an em-dash reason, say) is
    ignored, but writing one is the expected style: a suppression is a
    claim that iteration order (or whatever the rule protects) provably
    cannot affect results, and the reason is where that proof sketch
    lives. *)

type t

val empty : t

val load : string -> t
(** [load path] scans [path] for directives; unreadable files yield
    {!empty}. *)

val pure : t -> bool
(** The module carries the [pure] tag. *)

val active : t -> rule:string -> line:int -> bool
(** An [allow] directive for [rule] covers [line]. *)
