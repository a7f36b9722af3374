(** Node satisfaction — the paper's optimization metric (§3).

    For a node [i] with preference-list length [L_i], quota [b_i] and an
    ordered connection list [C_i] (best first, [c_i = |C_i| <= b_i]),
    satisfaction is (eq. 1):

    {v S_i = c_i/b_i + c_i(c_i-1)/(2 b_i L_i) - (Σ_{j∈C_i} R_i(j)) / (b_i L_i) v}

    where [R_i(j) ∈ {0..L_i-1}] is [j]'s rank in [i]'s preference list.
    [S_i ∈ [0,1]], maximal when the top [b_i] neighbours are connected.

    The per-connection increment of taking a node of rank [r = R_i(j)]
    as the connection at list position [q = Q_i(j) ∈ {0..c_i-1}] is
    (eq. 4)

    {v ΔS_ij = 1/b_i - (r - q)/(b_i·L_i)
             = (1 - r/L_i)/b_i  +  q/(b_i·L_i) v}

    i.e. a static part [(1 - r/L_i)/b_i] that depends only on the
    preference rank, plus a dynamic part [q/(b_i·L_i)] that depends on
    the execution.  Dropping the dynamic part gives the modified
    increment (eq. 5) [ΔS̄_ij = 1/b_i - r/(b_i·L_i)] and the modified
    satisfaction (eq. 6). *)

val delta : quota:int -> list_len:int -> rank:int -> position:int -> float
(** Full increment ΔS_ij of eq. 4: [rank] = R_i(j), [position] = Q_i(j)
    (the number of already-chosen better connections, [c_i] at choice
    time). Requires [0 <= rank < list_len] and [0 <= position < quota]. *)

val static_delta : quota:int -> list_len:int -> rank:int -> float
(** Modified (execution-independent) increment ΔS̄_ij of eq. 5. *)

val static_delta_unchecked : quota:int -> list_len:int -> rank:int -> float
(** {!static_delta} without its argument checks, for loops that validate
    [quota > 0], [list_len > 0] and [0 <= rank < list_len] once per
    list rather than once per entry; bit-identical to it on valid
    arguments.  Undefined on others. *)

val of_ranks : quota:int -> list_len:int -> int list -> float
(** Satisfaction (eq. 1) of a connection set given by the ranks
    [R_i(j)] of its members (any order; duplicates are a programming
    error).  Connection-list positions [Q_i] are assigned by sorting the
    ranks increasingly, as the paper's ordered list [C_i] prescribes.
    @raise Invalid_argument if more than [quota] ranks are supplied or a
    rank is out of range. *)

val of_rank_sum : quota:int -> list_len:int -> count:int -> rank_sum:int -> float
(** Eq. 1 from the number [count = c_i] of connections and the sum
    [rank_sum] of their ranks, which is all the formula reads; {!of_ranks}
    is this over its list.  @raise Invalid_argument if [count > quota]. *)

val static_of_ranks : quota:int -> list_len:int -> int list -> float
(** Modified satisfaction (eq. 6) of a connection set. *)
