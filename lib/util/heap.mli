(** Array-backed binary min-heaps.

    Two flavours are provided: a functorial heap over any ordered element
    type (the reference the event wheel is tested against), and a
    specialised [Keyed] heap with decrease-key support indexed by small
    integers (Dijkstra's queue in [Owp_graph.Spath]). *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(* owp-lint: allow dead-export — reference for Event_wheel's pop order *)
module Make (E : ORDERED) : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val add : t -> E.t -> unit

  val min_elt : t -> E.t
  (** @raise Invalid_argument on an empty heap. *)

  val peek_min_opt : t -> E.t option
  (** The minimum without removing it; [None] on an empty heap. *)

  val pop_min : t -> E.t
  (** Removes and returns the minimum. @raise Invalid_argument if empty. *)

  val pop_min_opt : t -> E.t option
  val of_array : E.t array -> t
  val to_sorted_list : t -> E.t list
  (** Destructive: drains the heap in ascending order. *)
end

module Keyed : sig
  (** Min-heap over integer keys [0..n-1] with [float] priorities and
      O(log n) [decrease_key]; each key is present at most once. *)

  type t

  val create : int -> t
  (** [create n] supports keys in [\[0, n)]. *)

  val is_empty : t -> bool

  val insert : t -> int -> float -> unit
  (** @raise Invalid_argument if the key is already present. *)

  val insert_or_decrease : t -> int -> float -> unit
  (** Inserts an absent key; lowers the priority of a present one (no-op
      if the new priority is not lower). *)

  val pop_min : t -> int * float
  (** @raise Invalid_argument if empty. *)
end
