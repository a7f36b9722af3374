(** Workload generation for the experiment harness: named graph
    families × preference-list models, as used across E2–E11. *)

type family =
  | Gnp of float  (** Erdős–Rényi with the given edge probability *)
  | Gnm_avg_deg of float  (** uniform random graph with given average degree *)
  | Ba of int  (** Barabási–Albert with attachment m *)
  | Ws of int * float  (** Watts–Strogatz (k, beta) *)
  | Geometric of float  (** random geometric with radius *)
  | Torus  (** 2-D torus (width ≈ sqrt n) *)
  | Power_law of float * int  (** configuration model (exponent, min degree) *)

val family_name : family -> string

val family_of_string : string -> (family, string) result
(** Parse the [--family] syntax: [gnp:P | deg:D | ba:M | ws:K:BETA |
    geo:R | torus | pl:EXP:MINDEG].  [Error] on malformed input and on
    any value the generator would reject whatever [n] is, on a
    non-finite number, on a negative radius or degree, and on a
    power-law MINDEG below 1. *)

val fits : family -> n:int -> (unit, string) result
(** Does the family build a graph on [n] nodes?  [Error] for the
    values only this [n] rules out: [ba:M] needs [n > M], [ws:K:BETA]
    needs [n > 2K], [pl:EXP:MINDEG] needs [n > MINDEG]. *)

val standard_families : family list
(** The four families the experiment tables sweep by default. *)

type pref_model =
  | Random_prefs  (** uniformly random lists — adversarial, cyclic *)
  | Latency_prefs  (** geometric distance metric (requires coordinates) *)
  | Interest_prefs of int  (** interest profiles with the given dims *)
  | Bandwidth_prefs  (** global capacity ranking — acyclic *)
  | Transaction_prefs  (** asymmetric pseudo-random history — cyclic *)

val pref_model_name : pref_model -> string

val pref_model_of_string : string -> (pref_model, string) result
(** Parse the [--prefs] syntax: [random | latency | bandwidth |
    transactions | interest:D], with [D >= 1]. *)

type instance = {
  label : string;
  graph : Graph.t;
  prefs : Preference.t;
  weights : Weights.t;
  capacity : int array;
}

val make :
  seed:int -> family:family -> pref_model:pref_model -> n:int -> quota:int -> instance
(** Build a full instance; coordinates are generated internally when the
    pref model needs them (latency on a non-geometric family samples
    virtual coordinates). *)

val of_graph :
  seed:int -> pref_model:pref_model -> quota:int -> label:string -> Graph.t -> instance
(** The instance {!make} would build over a given graph: the same
    preference-model dispatch on a fresh [Prng.create seed] stream, with
    latency coordinates sampled from it (a given graph has none). *)

val small_instances : seeds:int list -> n:int -> quota:int -> instance list
(** Dense-enough small instances across families/models for the exact
    comparisons (E3/E6/E11). *)
