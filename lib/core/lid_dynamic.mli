(** Dynamic LID — the paper's §7 future work ("can the same greedy
    strategy tackle joins/leaves?") built as a protocol extension and
    evaluated in experiment E16.

    The static LID protocol answers proposals lazily (a node defers
    replying until it can decide), which is what makes its edge set
    exactly locally-heaviest but assumes a fixed epoch.  The dynamic
    variant trades that exactness for responsiveness:

    - a saturated node {e immediately} declines a proposal (REJ);
    - a proposal is accepted with an explicit ACCEPT, locking the link
      on both sides (the proposer reserved a pending slot, so neither
      side overcommits);
    - a peer leaving sends LEAVE to its alive neighbours; any neighbour
      that loses a locked link regains quota and resumes proposing;
    - a peer (re)joining sends HELLO and starts proposing;
    - a node that frees capacity broadcasts AVAIL so that neighbours it
      previously declined may retry.

    The resulting matching is maximal and capacity-feasible at every
    quiescent point; unlike static LID it is not always the
    locally-heaviest edge set — E16 measures the satisfaction gap
    against a from-scratch static LID run after the same event trace
    (typically a few percent, at a small fraction of the messages). *)

type step_report = {
  event : Churn.event;
      (** [Join v] activates peer [v] (it says HELLO and starts
          proposing), [Leave v] deactivates it (it says LEAVE to its
          alive neighbours) *)
  active_nodes : int;
  total_satisfaction : float;
  weight : float;
  messages_for_event : int;  (** protocol messages triggered by this event *)
}

type report = {
  steps : step_report list;
  final_matching : Owp_matching.Bmatching.t;
  total_messages : int;
  bootstrap_messages : int;  (** messages spent building the initial overlay *)
  quiescent : bool;
      (** the bootstrap and every event burst drained with symmetric
          locks before the next event *)
}

val run :
  ?seed:int ->
  ?delay:Owp_simnet.Simnet.delay_model ->
  prefs:Preference.t ->
  initially_active:bool array ->
  events:Churn.event list ->
  unit ->
  report
(** Bootstraps the overlay among the initially active peers, then plays
    the events one at a time, letting the protocol quiesce in between
    (virtual time; the simulator runs to quiescence per burst).  One
    active mask, updated by {!Churn.apply}, is the membership; each step
    is measured by {!Churn.measure}, and [final_matching] has the
    {!Churn.capacity} of the final mask.
    @raise Invalid_argument on malformed events ({!Churn.apply}). *)
