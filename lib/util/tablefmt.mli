(** Plain-text table rendering for experiment output.

    The benchmark harness prints each reproduced table/figure as an
    aligned ASCII table; this module owns the layout so every experiment
    renders uniformly. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create cols] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row arity differs from the header. *)

val add_rows : t -> string list list -> unit

val add_separator : t -> unit
(** Inserts a horizontal rule between row groups. *)

val render : t -> string

val to_json : t -> string
(** The same table as a JSON object: [{"title", "columns", "rows"}],
    each row an object keyed by column header.  Cells are emitted as
    JSON numbers when they parse as one ("12", "0.5170"), percentage
    cells ("51.7%") are converted back to their ratio, and everything
    else becomes a string.  Separators vanish — they are presentation,
    not data. *)

(* Cell formatting helpers. *)
val fcell : float -> string
(** 4 decimal places. *)

val fcell2 : float -> string
(** 2 decimal places. *)

val icell : int -> string
val pct : float -> string
(** Ratio rendered as a percentage with one decimal. *)
