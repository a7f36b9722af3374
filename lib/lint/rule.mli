(** The rule registry's vocabulary: what a rule sees and the typedtree
    helpers every rule shares.

    A rule runs per compilation unit over the typedtree, with access to
    a pre-computed {e universe} of type facts gathered from every unit
    in the scan (which user-defined types carry floats, which are
    mutable records) — the cross-module knowledge a single [.cmt]
    cannot provide on its own. *)

(** {1 Cross-unit type facts} *)

type universe

val universe : (string * Typedtree.structure) list -> universe
(** Collect type declarations from every scanned unit (keyed by module
    name) and close them transitively: a record whose field is a
    float-bearing type is itself float-bearing. *)

val type_has_float : universe -> in_module:string -> Types.type_expr -> bool
(** The type is [float], or a tuple / known constructor (list, option,
    array, or a scanned declaration) carrying one.  [in_module]
    qualifies unqualified type names at their declaration site. *)

val type_is_mutable : universe -> in_module:string -> Types.type_expr -> bool
(** The type is a reference cell, array, hash table, buffer, or a
    scanned record with mutable fields. *)

(** {1 Cross-unit references} *)

type readers

val readers : (string * string * Typedtree.structure) list -> readers
(** Index every value and module path each [(module_name, file,
    structure)] unit reads, with local module aliases resolved to their
    targets and dune's mangling undone. *)

val readers_of : readers -> module_name:string -> string -> string list
(** [readers_of idx ~module_name "Owp_util.Heap.push"]: the display
    files of the units other than [module_name] that read the path or
    anything under it, sorted. *)

(** {1 The per-unit context} *)

type context = {
  module_name : string;
  file : string;
  basename : string;
  structure : Typedtree.structure;
  interface : Cmt_load.interface option;  (** the unit's [.mli], if any *)
  pure : bool;  (** source carries the [(* owp-lint: pure *)] tag *)
  univ : universe;
  readers : readers Lazy.t;  (** every unit of the whole build *)
}

type t = { name : string; doc : string; check : context -> Finding.t list }

(** {1 Typedtree helpers} *)

val split_mangled : string -> string list
(** A module name with dune's [Lib__Module] mangling undone
    (["Owp_util__Heap"] becomes [["Owp_util"; "Heap"]]). *)

val path_parts : Path.t -> string list
(** Flattened path components with dune's [Lib__Module] mangling undone
    (["Owp_util__Prng"; "int"] becomes ["Owp_util"; "Prng"; "int"]). *)

val stdlib_head : string list -> string list
(** Drop a leading ["Stdlib"] component. *)

val tail_name : string list -> string
(** The last two components joined with ['.'] — the resolution-robust
    key used to match idents and type constructors. *)

val iter_expressions : Typedtree.structure -> (Typedtree.expression -> unit) -> unit
(** Visit every expression of the unit (module bodies included). *)

val iter_expr_within :
  Typedtree.expression -> (Typedtree.expression -> unit) -> unit
(** Visit every sub-expression of one expression (itself included). *)

val iter_value_names :
  Typedtree.structure -> (string -> Location.t -> unit) -> unit
(** Visit every name bound by a pattern (lets, function parameters,
    match cases) anywhere in the unit. *)

val head_ident : Typedtree.expression -> Path.t option
(** The identifier at the head of an application spine, if any. *)

val ident_of : Typedtree.expression -> (Path.t * Types.value_description) option
(** The expression is an identifier. *)

val contains : string -> string -> bool
(** [contains hay needle]: [needle] occurs in [hay] (path scoping). *)

val loc_inside : Location.t -> Location.t -> bool
(** [loc_inside inner outer]: same file and contained character span. *)

val arrow_arg : Types.type_expr -> Types.type_expr option
(** First argument type when the expression type is an arrow. *)
