(** The unified run configuration.

    One value answers "how should this instance be solved": which engine
    ({!engine}), under which fault environment ({!Owp_simnet.Faults.t}),
    with which seed, adversaries and diagnostics.  [owp run], [owp check]
    and the benchmark harness all build one of these from their flags
    and hand it to {!Pipeline.run_config}; before PR 4 each of them
    threaded six optional arguments separately through the drivers, with
    per-call-site defaults that could (and did) drift.

    Since the drivers collapsed into the layered {!Stack}, the knobs
    compose: any combination of [faults], [reliable], [byzantine] and
    [guard] on a LID-family engine selects a set of middleware layers
    over the same protocol loop.  {!validate} only rejects combinations
    that are genuinely meaningless (a guard with nothing to guard
    against, network knobs on engines that do not simulate a network),
    not merely unusual ones.

    The instance itself (graph, preferences, quotas) stays out of the
    record on purpose: a config is reusable across a sweep of instances,
    which is exactly what the multicore runner needs. *)

type engine =
  | Lic_indexed
      (** [lic]: Algorithm 2 over per-node max-weight edge indexes.  By
          Lemma 6 every locally-heaviest selection order, and the
          global greedy OPT comparator of Theorem 2, lock this same
          edge set, so it is the one LIC engine *)
  | Lid  (** Algorithm 1 on the datagram simulator *)
  | Lid_reliable  (** Algorithm 1 with the ARQ transport layer enabled *)
  | Dynamics  (** blocking-pair dynamics (stable-fixtures baseline) *)

type t = {
  engine : engine;
  seed : int;
  faults : Owp_simnet.Faults.t;
  schedule : Owp_simnet.Schedule.t;
      (** time-varying fault episodes layered over [faults]
          ({!Owp_simnet.Schedule}); empty = static environment *)
  reliable : bool;
      (** enable the ARQ transport layer (implied by [Lid_reliable]) *)
  byzantine : string option;
      (** adversary spec, {!Owp_simnet.Adversary.parse_spec} syntax *)
  guard : bool;  (** inbound protocol guard (needs an adversary spec) *)
  sim_shards : int;
      (** always 1, which {!validate} enforces; kept only until the
          benchmark stops reading it *)
  check : bool;  (** run the invariant checkers on the result *)
  deadline : float option;
      (** anytime budget: halt delivery at this virtual time and serve
          the frozen partial matching ({!Stack.run}'s [deadline]) *)
  max_rounds : int option;
      (** the same budget in propose–answer rounds, converted via
          {!Stack.round_length}; exclusive with [deadline] *)
}

val make :
  ?engine:engine ->
  ?seed:int ->
  ?faults:Owp_simnet.Faults.t ->
  ?schedule:Owp_simnet.Schedule.t ->
  ?reliable:bool ->
  ?byzantine:string ->
  ?guard:bool ->
  ?check:bool ->
  ?deadline:float ->
  ?max_rounds:int ->
  unit ->
  t

val budgeted : t -> bool
(** Is an anytime budget ([deadline] or [max_rounds]) set? *)

val engine_of_string : string -> (engine, string) result
(** Recognises [lic], [lid], [lid-reliable] and [dynamics], in any
    case; anything else is an [Error] listing them. *)

val engine_name : engine -> string
(** Canonical CLI name; [engine_of_string (engine_name e) = Ok e]. *)

val lid_family : engine -> bool
(** [Lid] or [Lid_reliable]: the engines that execute through the
    layered {!Stack} loop and accept network/adversary knobs. *)

val validate : t -> (t, string) result
(** Cross-field consistency.  Rejected: an adversary spec, faults, a
    fault schedule, [reliable] or an anytime budget on a
    non-LID-family engine; an invalid schedule
    ({!Owp_simnet.Schedule.validate}); [guard] without a spec; an
    unparsable spec; [sim_shards] other than 1; out-of-range fault fields
    ({!Owp_simnet.Faults.validate}); a non-positive budget; [deadline]
    and [max_rounds] together.  Everything else — in particular
    faults + reliable + byzantine + guard + a budget together — is a
    legal layer composition. *)

val to_string : t -> string
(** One-line summary, e.g. ["engine=lid seed=7 faults=drop=0.2 reliable
    byzantine=liar:0.2 guard"]. *)
