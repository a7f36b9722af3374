(** The seeded arrival process of a serve session: `RATE[:MIX]`.

    One spec string describes the whole request stream a sustained-run
    session faces — the Poisson arrival rate, the request mix, the
    virtual-time horizon and the queueing knobs — with one parser and
    one printer in the {!Owp_simnet.Faults}/{!Owp_simnet.Schedule}
    style, e.g. [4], [2.5:query=3], or
    [8:join=1,leave=1,repref=0,horizon=300,queue=32].

    All times and rates are in {e virtual} (simulation) time units. *)

type t = {
  rate : float;  (** mean arrivals per virtual-time unit (Poisson) *)
  join : float;  (** mix weight of membership joins (default 1) *)
  leave : float;  (** mix weight of membership leaves (default 1) *)
  repref : float;  (** mix weight of re-preference events (default 2) *)
  query : float;  (** mix weight of satisfaction queries (default 6) *)
  horizon : float;  (** virtual-time length of the session (default 100) *)
  queue : int;  (** backlog bound before shedding (default 64) *)
  oracle : float;  (** LIC-oracle sampling period (default 20) *)
  warmup : float;
      (** fraction of the horizon excluded from steady-state accounting
          (default 0.25) *)
}

val default : t
(** Rate 1, mix join 1 / leave 1 / repref 2 / query 6, horizon 100,
    queue 64, oracle 20, warmup 0.25. *)

val make :
  ?rate:float ->
  ?join:float ->
  ?leave:float ->
  ?repref:float ->
  ?query:float ->
  ?horizon:float ->
  ?queue:int ->
  ?oracle:float ->
  ?warmup:float ->
  unit ->
  t

val validate : t -> (t, string) result
(** Positive rate/horizon/oracle, non-negative mix weights with a
    positive sum, queue >= 1, warmup in [0, 1). *)

val of_string : string -> (t, string) result
(** Parse `RATE[:field,...]`, [validate]d; fields are [k=v] pairs named
    after the record fields. *)

val to_string : t -> string
(** Canonical rendering: the rate, then only the non-default fields.
    Round-trips through {!of_string}. *)

val pp : Format.formatter -> t -> unit
