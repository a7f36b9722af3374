(** Adversary models for Byzantine fault injection.

    The paper's §7 leaves "disruptive nodes" open: every peer that
    speaks is trusted to follow Algorithm LID and to report its half of
    the symmetric weight (eq. 9) honestly.  This module names the ways a
    peer can break that trust and assigns adversary roles to nodes of a
    simulated overlay.  The models are protocol-agnostic: the concrete
    wire behaviour of each model is supplied by the protocol layer
    ({!Owp_core.Stack}'s adversary layer) as a {!behaviour}, so the same
    machinery can drive other protocols later.

    Nothing here decides how adversaries are {e detected} — that is the
    guard's job ({!Owp_core.Guard}). *)

type model =
  | Weight_liar of float
      (** Advertises an inflated ΔS̄ half-weight to jump its peers'
          ranking queues.  The float is the relative inflation above the
          structural bound 1/b: the advertised half is
          [(1 + inflation) / b], which no honest node can reach. *)
  | Equivocator
      (** Accepts (and thereby locks) every proposal it receives and
          proposes to all neighbours, consuming far more partner slots
          than its quota [b_i] allows.  Each individual link interaction
          is legal LID behaviour — equivocation is invisible to a purely
          local guard (a documented limit). *)
  | Flooder of int
      (** Never answers its protocol obligations; instead every receipt
          triggers [sweeps] full rounds of PROP spam over all its
          neighbours.  Spam is budget-bounded so that two adjacent
          flooders cannot amplify each other forever. *)
  | Replayer
      (** Behaves like a lazy honest node but re-sends copies of earlier
          messages (duplicates and stale-epoch replays) past the
          transport layer's dedup. *)
  | State_violator
      (** Breaks the per-link protocol state machine: proposes to
          strangers, rejects after locking, and never answers proposals
          directed at it (a liveness violation — unguarded peers starve
          waiting for its reply). *)

val name : model -> string
(** Short CLI name of the model (parameter-free). *)

val all_defaults : model list
(** One instance of every model with default parameters. *)

val parse_spec : string -> (model * float) list
(** Parses a CLI adversary spec [MODEL:FRAC[,MODEL:FRAC...]], e.g.
    ["liar:0.2"] or ["liar:0.1,flooder:0.05"].  [FRAC] is the fraction
    of nodes (in [(0, 1]]) to corrupt with that model.
    @raise Invalid_argument on malformed specs. *)

val count : n:int -> (model * float) list -> int
(** How many of [n] nodes {!assign} corrupts: each [(m, frac)] entry
    takes [round (frac * n)] nodes, at least one.  The spec fits iff
    the count is below [n]. *)

val assign :
  Owp_util.Prng.t -> n:int -> (model * float) list -> model option array
(** Randomly assigns adversary roles over [n] nodes, {!count} of them
    in all; assignments never overlap and at least one node is always
    left correct.  @raise Invalid_argument if the requested fractions
    cannot fit. *)

(** {2 Behaviour hook}

    A node taken over by an adversary no longer runs the protocol's
    state machine; the simulation driver routes its traffic to a
    behaviour instead.  ['m] is the wire message type. *)

type 'm behaviour = {
  on_init : send:(dst:int -> 'm -> unit) -> unit;
      (** Called once when the simulation starts (in node-id order,
          before any delivery). *)
  on_receive : src:int -> 'm -> send:(dst:int -> 'm -> unit) -> unit;
      (** Called for every message delivered to the adversary node. *)
}

val silent : 'm behaviour
(** The do-nothing behaviour (a crashed-from-start peer). *)
