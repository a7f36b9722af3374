(** Structured invariant-violation reports.

    Every diagnostic in {!Checker} (and the protocol explorer
    {!Explore}) reports failures as values of this type instead of bare
    booleans: the checker that fired, the subject (a node, an edge or
    the whole instance), and the expected-vs-actual discrepancy in
    human-readable form.  Reports are data, so callers can count,
    filter, pretty-print or assert on them. *)

type subject =
  | Global  (** the instance as a whole *)
  | Node of int
  | Edge of int * int  (** endpoints, lower id first *)

type t = {
  checker : string;  (** name of the diagnostic that fired *)
  subject : subject;
  expected : string;
  actual : string;
}

val v : checker:string -> subject -> expected:string -> actual:string -> t
(** Build a violation; [Edge] endpoints are normalised to lower-first. *)

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
val to_string : t -> string
