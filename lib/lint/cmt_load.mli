(** Locating and reading the [.cmt] typedtrees dune emits.

    Dune compiles every module with [-bin-annot], so after [dune build]
    each library directory holds a [.objs/byte] directory of [.cmt]
    files (and a [.cmti] next to each one whose module has an [.mli]).
    [scan] walks the given roots recursively, reads every
    implementation [.cmt] it finds with its interface, if any, and
    resolves each source file (first against the recorded build
    directory — dune copies sources into [_build] — then against the
    current directory), so the suppression scanner can see the original
    comments. *)

type interface = {
  ifile : string;  (** display path, e.g. ["lib/core/lid.mli"] *)
  isource : string option;  (** readable copy of the [.mli], if any *)
  signature : Typedtree.signature;
}

type unit_info = {
  module_name : string;  (** e.g. ["Owp_core__Lid"] *)
  file : string;  (** display path, e.g. ["lib/core/lid.ml"] *)
  basename : string;  (** e.g. ["lid.ml"] *)
  source : string option;  (** readable copy of the source, if any *)
  structure : Typedtree.structure;
  interface : interface option;  (** from the [.cmti], when there is one *)
}

val scan : string list -> unit_info list
(** [scan roots] returns every implementation unit under the roots,
    sorted by display path.  Unreadable or non-implementation [.cmt]
    files are skipped silently. *)

val unbuilt : string list -> string list
(** The [.cmti] files under the roots with no [.cmt] beside them: an
    executable's main module, which [dune build] compiles natively only
    and [dune build @check] types into a [.cmt]. *)

val build_root : string list -> string list
(** The [_build/default] directory above the first root that has one —
    the whole build, whatever subtree is linted — or the roots
    themselves when none does. *)
