(** Plain edge-list serialisation.

    Format: a header line ["n m"], then one ["u v"] line per edge.
    Lines starting with ['#'] are comments.  This is the interchange
    format used by the CLI ([bin/owp generate] / [bin/owp run]). *)

val to_string : Graph.t -> string
val write : string -> Graph.t -> unit

(* owp-lint: allow dead-export — test seam: drives the parser without a file *)
val of_string : string -> (Graph.t, string) result
(** [Error "line K: ..."] at the first malformed line: a header that is
    not two counts (or declares more than 2{^24} nodes), an edge line
    whose first two fields are not node ids of the graph, a self-loop,
    a duplicated edge, or an edge count other than the header's.
    Fields past the second on an edge line are ignored.  Never raises. *)

val read : string -> (Graph.t, string) result
(** {!of_string} on a file; an unreadable file is an [Error]. *)

(** {1 Matchings}

    A saved matching: a ["# owp matching: N nodes, K selected edges"]
    comment, then one ["u v"] line per selected edge of its graph — what
    [owp run --save] writes and [owp verify] / [owp check --matching]
    read. *)

val matching_to_string : Graph.t -> int list -> string

(* owp-lint: allow dead-export — test seam: drives the parser without a file *)
val matching_of_string : Graph.t -> string -> (int list, string) result
(** The edge ids of the ["u v"] lines, in file order (a repeated line
    stays, for the checkers to flag); [Error "line N: ..."] at the first
    line that is not two node ids of the graph joined by an edge. *)

val read_matching : Graph.t -> string -> (int list, string) result
(** {!matching_of_string} on a file; an unreadable file is an [Error]. *)
