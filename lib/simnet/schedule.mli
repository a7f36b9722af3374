(** Time-varying fault schedules: scripted network weather.

    {!Faults.t} describes an i.i.d. environment — every message tosses
    the same coins for its whole run.  Real overlays fail differently:
    the network partitions and heals, links flap with a duty cycle,
    loss arrives in bursts, hosts go down and come back.  A schedule is
    a list of timed {e episodes}, each active on a half-open virtual
    interval [\[t0, t1)], layered {e on top of} whatever i.i.d. faults
    the run already has.

    The last episode's end is the heal instant [T_heal]
    ({!end_time}); everything {!Owp_check.Stabilize} certifies is
    phrased relative to it.

    Like {!Faults}, the type has one compact spec syntax shared by the
    CLI, the chaos fuzzer and the benchmark harness
    ({!of_string}/{!to_string} round-trip).  Episodes are
    [;]-separated; node ids join with [.], groups separate with [|],
    and [@t0-t1] closes each episode:

    - [part:0.1|2.3@2-6] — nodes split into blocks {0,1} | {2,3} (all
      unlisted nodes form one implicit further block); cross-block
      messages are cut
    - [link:0.1|2.3@2-5] — the undirected links (0,1) and (2,3) are down
    - [flap:0.1:1.5:0.5@2-8] — link (0,1) flaps with period 1.5, down
      for the first half (duty 0.5) of every period
    - [burst:0.9@3-4] — every message in flight loses an extra 0.9 coin
    - [down:2.5@1-6] — nodes 2 and 5 crash at t=1 and restart at t=6 *)

type kind =
  | Partition of int list list
      (** named blocks; unlisted nodes form one implicit extra block *)
  | Link_down of (int * int) list  (** undirected links cut *)
  | Flap of { links : (int * int) list; period : float; duty : float }
      (** links down while [(t - t0) mod period < duty * period] *)
  | Burst of float  (** additional per-delivery loss probability *)
  | Down of int list  (** nodes crash at [from_], restart at [until] *)

type episode = { from_ : float; until : float; what : kind }
type t = episode list

val empty : t
val is_empty : t -> bool

val overlaps : t -> from_:float -> until:float -> bool
(** Some episode intersects the half-open window [[from_, until)].
    This is the give-up suppression test: a peer silent over a window
    the weather touched is not evidence of death — a timer that fires
    just {e after} the heal, while the healed link's answer is still in
    flight, must wait one more clean window (testing only the fire
    instant would let it fire falsely). *)

val end_time : t -> float
(** [T_heal]: the supremum of episode ends ([0.] for {!empty}).  After
    this instant {!active} is [false] forever and recovery is on the
    clock. *)

val outage : t -> at:float -> src:int -> dst:int -> float
(** Loss probability the schedule imposes on a delivery [src → dst] at
    virtual time [at]: [1.0] when a partition, downed link or flapping
    link (in its down phase) cuts the pair, otherwise the strongest
    active burst's probability, otherwise [0.].  Purely a function of
    its arguments — the simulator samples the coin. *)

val down_spans : t -> (int * float * float) list
(** [(node, crash_at, restart_at)] for every node of every [Down]
    episode, in episode order — ready to desugar into
    {!Owp_core.Stack.crash_plan}s. *)

val validate : ?n:int -> t -> (t, string) result
(** Intervals well-formed ([0 <= t0 < t1]), parameters in range
    (period positive, duty and burst in [(0, 1]]), groups non-empty,
    link endpoints distinct, no node downed by two overlapping
    episodes; node ids in [\[0, n)] when [n] is given. *)

val of_string : string -> (t, string) result
(** Parse the [--schedule] spec described above; ["none"] or the empty
    string is {!empty}.  The result is {!validate}d (without [n]). *)

val to_string : t -> string
(** Canonical spec; ["none"] when empty.
    [of_string (to_string t) = Ok t]. *)

val pp : Format.formatter -> t -> unit
