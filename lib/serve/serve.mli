(** The sustained-traffic serving engine ([owp serve]'s core).

    A serve session is a serial queue in {e virtual} time over the
    composed protocol stack: requests arrive by the seeded Poisson
    process an {!Arrivals.t} describes, each admitted request is
    serviced to completion in arrival order, and latency is queue wait
    plus service.  Joins, leaves and re-preference events are serviced
    by re-running the configured engine composition
    ({!Owp_core.Pipeline.run_config} with the session's current
    capacity vector — every layer flag of the config applies to every
    request); their service time is that run's virtual completion
    time.  Queries cost one propose-answer round.  When the backlog
    reaches the spec's queue bound, arriving requests are shed.

    Periodically (every [oracle] virtual units) the session runs a
    from-scratch LIC oracle on the current membership and records the
    served/ideal satisfaction ratio; samples past the warmup fraction
    of the horizon average into the steady-state figure.

    Everything is deterministic in (config seed, arrival spec): the
    report renders byte-identically across replays. *)

type kind = Join | Leave | Repref | Query

type request = { at : float; kind : kind; target : int }

val generate_requests : Arrivals.t -> seed:int -> n:int -> request list
(** The session's request stream, in arrival order — exposed for
    tests and experiments that want the exact trace. *)

val run :
  ?handicap:float ->
  arrivals:Arrivals.t ->
  Owp_core.Run_config.t ->
  Preference.t ->
  (Owp_core.Pipeline.outcome, string) result
(** Run one serve session.  The returned outcome is the session's last
    engine run with [serve = Some report]
    ({!Owp_core.Serve_report.t}) and [failures] replaced by the session
    verdict: one line per failing engine run, bootstrap (run 0) and
    mutations alike, as ["run K: ..."] with that run's failures joined
    by ["; "].  LIC oracle runs never fail.  [handicap] (default 0) adds the
    given virtual time to every request's service — the planted latency
    regression E27's claims use to prove its serve gate can trip.
    Errors on an invalid config or arrival spec, a negative handicap,
    a non-LID-family engine (centralized engines have no protocol run
    to serve), or an instance with no nodes (requests target a node). *)
