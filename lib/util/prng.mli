(** Deterministic, seedable pseudo-random number generation.

    The benchmarks and the discrete-event simulator both require bitwise
    reproducibility across runs, so the library carries its own generator
    instead of relying on [Stdlib.Random]'s global state.  The generator is
    xoshiro256** (Blackman & Vigna), seeded through SplitMix64 so that any
    64-bit integer seed yields a well-mixed initial state. *)

type t
(** Mutable generator state: the four 64-bit xoshiro words s0..s3,
    stored unboxed in 32 bytes (native endianness, byte offsets 0, 8,
    16, 24).  A draw reads and rewrites them in registers; nothing is
    boxed but the value it returns.  Not thread-safe; create one per
    domain. *)

val create : int -> t
(** [create seed] builds a generator from a 64-bit seed via SplitMix64. *)

val copy : t -> t
(** [copy g] duplicates the current state (same future outputs). *)

(* owp-lint: allow dead-export — test seam: the raw stream golden vectors pin *)
val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential g mean] samples Exp with the given mean ([mean > 0]). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val shuffle_sub : t -> 'a array -> pos:int -> len:int -> unit
(** [shuffle_sub g a ~pos ~len] shuffles the slice [a.(pos .. pos+len-1)]
    in place, drawing exactly what {!shuffle_in_place} draws on a
    [len]-element array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g k n] draws [k] distinct values from
    [\[0, n)], in random order.  Requires [0 <= k <= n]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform permutation of [0..n-1]. *)
