(** Suitability metrics (§1 of the paper).

    Every peer may rank its neighbours by an individually chosen, private
    metric — distance, interests, recommendations, transaction history or
    available resources.  A metric here is a scoring function
    [score i j]: the desirability of peer [j] from peer [i]'s point of
    view (higher is better).  Metrics never leave the node: the
    algorithms below only ever observe ranks and ΔS̄ values.

    Stateless metrics are derived by hashing [(seed, i, j)], so they cost
    O(1) memory regardless of graph size and are reproducible. *)

type t = private { name : string; score : int -> int -> float }

val name : t -> string
val score : t -> int -> int -> float

val latency : (float * float) array -> t
(** Euclidean-proximity metric over node coordinates: closer is better.
    Symmetric, hence an acyclic ("global potential") preference system
    need not result — distances are symmetric but rankings differ. *)

val interest : seed:int -> dims:int -> t
(** Cosine-like interest-profile similarity: each node gets a
    pseudo-random profile in [\[0,1\]^dims]; score is the dot product.
    Symmetric. *)

val bandwidth : seed:int -> t
(** Resource metric: every node ranks others by the target's capacity
    alone.  Induces a master ordering, i.e. an acyclic preference system
    in the sense of Gai et al. (the case where stabilization is known to
    be guaranteed). *)

val transaction_history : seed:int -> t
(** Asymmetric pseudo-random history counts: [score i j] and
    [score j i] are independent.  The canonical source of cyclic
    preference systems. *)

val combine : string -> (float * t) list -> t
(** Weighted linear combination of metrics, e.g. 0.7·latency + 0.3·interest. *)
