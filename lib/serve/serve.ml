(* The sustained-traffic serving engine: a long-lived session feeding
   the composed stack a continuous request stream.

   The session is a serial queue in virtual time.  Requests arrive by a
   seeded Poisson process (Arrivals.rate); each admitted request is
   serviced to completion before the next starts, so latency = queue
   wait + service.  A mutation request (join / leave / re-preference)
   is serviced by re-running the configured engine composition —
   Pipeline.run_config with the session's current capacity vector — and
   its service time is that run's virtual completion time; a query is
   one propose-answer round.  Every latency figure is virtual: the
   serving layer never reads a wall clock (the clock-hygiene lint rule
   enforces this for the whole lib/serve tree).

   Periodically the session evaluates a from-scratch LIC oracle on the
   current membership and compares the served matching's satisfaction
   against it; the tail samples (past the warmup fraction) average into
   the steady-state satisfaction figure the report carries. *)

module RC = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module Stack = Owp_core.Stack
module Prng = Owp_util.Prng

type kind = Join | Leave | Repref | Query

type request = { at : float; kind : kind; target : int }

(* one propose-answer round under the stack's default delay model: the
   service cost of a read-only query *)
let query_service = Stack.round_length (Owp_simnet.Simnet.Uniform (0.5, 1.5))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* deterministic per-request seed stream: distinct runs of the engine
   inside one session must not share trajectories, replays must *)
let request_seed base idx = base lxor (0x5E4E + (7919 * idx))

let generate_requests arrivals ~seed ~n =
  let rng = Prng.create (seed lxor 0xA441) in
  let total =
    arrivals.Arrivals.join +. arrivals.Arrivals.leave +. arrivals.Arrivals.repref
    +. arrivals.Arrivals.query
  in
  let pick_kind () =
    let u = Prng.float rng total in
    if u < arrivals.Arrivals.join then Join
    else if u < arrivals.Arrivals.join +. arrivals.Arrivals.leave then Leave
    else if
      u < arrivals.Arrivals.join +. arrivals.Arrivals.leave +. arrivals.Arrivals.repref
    then Repref
    else Query
  in
  let rec go t acc =
    let t = t +. Prng.exponential rng (1.0 /. arrivals.Arrivals.rate) in
    if t > arrivals.Arrivals.horizon then List.rev acc
    else go t ({ at = t; kind = pick_kind (); target = Prng.int rng n } :: acc)
  in
  go 0.0 []

let run ?(handicap = 0.0) ~arrivals cfg prefs =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  match
    ( RC.validate cfg,
      Arrivals.validate arrivals,
      RC.lid_family cfg.RC.engine,
      handicap >= 0.0,
      n > 0 )
  with
  | Error msg, _, _, _, _ -> Error ("config: " ^ msg)
  | _, Error msg, _, _, _ -> Error ("arrivals: " ^ msg)
  | _, _, false, _, _ ->
      Error
        (Printf.sprintf
           "serve drives the protocol stack; engine %s has no protocol run \
            (pick lid or lid-reliable)"
           (RC.engine_name cfg.RC.engine))
  | _, _, _, false, _ -> Error "handicap must be >= 0"
  | _, _, _, _, false -> Error "the instance has no nodes to serve requests for"
  | Ok cfg, Ok arrivals, true, true, true ->
      let quota = Array.init n (Preference.quota prefs) in
      let active = Array.make n true in
      let lists = Array.init n (Preference.list prefs) in
      let cur = ref prefs in
      let shuffle_rng = Prng.create (cfg.RC.seed lxor 0x5EF5) in
      let capacity_now () = Owp_core.Churn.capacity !cur active in
      (* the session verdict covers every engine run: each failing run
         contributes one line, tagged with its index (0 = bootstrap) *)
      let runs = ref 0 and failures = ref [] in
      let record (out : Pipeline.outcome) =
        if out.Pipeline.failures <> [] then
          failures :=
            Printf.sprintf "run %d: %s" !runs (String.concat "; " out.Pipeline.failures)
            :: !failures;
        out
      in
      let engine_run () =
        incr runs;
        let rcfg = { cfg with RC.seed = request_seed cfg.RC.seed !runs } in
        record (Pipeline.run_config ~capacity:(capacity_now ()) rcfg !cur)
      in
      (* bootstrap: the standing matching a session starts from *)
      let outcome = ref (record (Pipeline.run_config cfg prefs)) in
      let service_of_run (out : Pipeline.outcome) =
        match out.Pipeline.rounds with Some t -> t | None -> query_service
      in
      let mutate () =
        let out = engine_run () in
        outcome := out;
        service_of_run out
      in
      let joins = ref 0 and leaves = ref 0 and reprefs = ref 0 and queries = ref 0 in
      (* the service time of one request, in virtual units *)
      let handle r =
        match r.kind with
        | Join ->
            incr joins;
            if active.(r.target) then query_service (* no-op join *)
            else begin
              active.(r.target) <- true;
              mutate ()
            end
        | Leave ->
            incr leaves;
            let live = Array.fold_left (fun a b -> if b then a + 1 else a) 0 active in
            if (not active.(r.target)) || live <= 1 then query_service
            else begin
              active.(r.target) <- false;
              mutate ()
            end
        | Repref ->
            incr reprefs;
            if Array.length lists.(r.target) < 2 then query_service
            else begin
              Prng.shuffle_in_place shuffle_rng lists.(r.target);
              cur := Preference.create g ~quota ~lists;
              mutate ()
            end
        | Query ->
            incr queries;
            query_service
      in
      (* the LIC oracle: from-scratch centralized ideal on the current
         membership, compared on total satisfaction *)
      let oracle_cfg = RC.make ~engine:RC.Lic_indexed ~seed:cfg.RC.seed () in
      let oracle_samples = ref 0 and steady_sum = ref 0.0 and steady_n = ref 0 in
      let sample_oracle at =
        incr oracle_samples;
        let ideal =
          Pipeline.run_config ~capacity:(capacity_now ()) oracle_cfg !cur
        in
        let served = !outcome.Pipeline.total_satisfaction in
        let ratio =
          if ideal.Pipeline.total_satisfaction <= 0.0 then 1.0
          else served /. ideal.Pipeline.total_satisfaction
        in
        if at >= arrivals.Arrivals.warmup *. arrivals.Arrivals.horizon then begin
          steady_sum := !steady_sum +. ratio;
          incr steady_n
        end
      in
      let requests = generate_requests arrivals ~seed:cfg.RC.seed ~n in
      let offered = List.length requests in
      let shed = ref 0 and served = ref 0 in
      let latencies = ref [] and services = ref [] in
      let server_free = ref 0.0 and busy = ref 0.0 and max_queue = ref 0 in
      let backlog = Queue.create () in
      let next_sample = ref arrivals.Arrivals.oracle in
      List.iter
        (fun r ->
          while !next_sample <= r.at do
            sample_oracle !next_sample;
            next_sample := !next_sample +. arrivals.Arrivals.oracle
          done;
          (* completions at or before this arrival have drained *)
          while (not (Queue.is_empty backlog)) && Queue.peek backlog <= r.at do
            ignore (Queue.pop backlog)
          done;
          if Queue.length backlog >= arrivals.Arrivals.queue then incr shed
          else begin
            let start = Float.max r.at !server_free in
            let service = handle r +. handicap in
            let completion = start +. service in
            server_free := completion;
            busy := !busy +. service;
            Queue.push completion backlog;
            max_queue := max !max_queue (Queue.length backlog);
            incr served;
            services := service :: !services;
            latencies := (completion -. r.at) :: !latencies
          end)
        requests;
      while !next_sample <= arrivals.Arrivals.horizon do
        sample_oracle !next_sample;
        next_sample := !next_sample +. arrivals.Arrivals.oracle
      done;
      let lat = Array.of_list (List.rev !latencies) in
      Array.sort Float.compare lat;
      let mean_service =
        if !served = 0 then 0.0
        else List.fold_left ( +. ) 0.0 !services /. float_of_int !served
      in
      let report =
        {
          Owp_core.Serve_report.arrivals = Arrivals.to_string arrivals;
          horizon = arrivals.Arrivals.horizon;
          offered;
          served = !served;
          shed = !shed;
          joins = !joins;
          leaves = !leaves;
          reprefs = !reprefs;
          queries = !queries;
          p50 = percentile lat 0.50;
          p99 = percentile lat 0.99;
          max_latency = (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1));
          mean_service;
          throughput = float_of_int !served /. arrivals.Arrivals.horizon;
          max_queue = !max_queue;
          utilization = !busy /. arrivals.Arrivals.horizon;
          steady_satisfaction =
            (if !steady_n = 0 then 1.0 else !steady_sum /. float_of_int !steady_n);
          oracle_samples = !oracle_samples;
        }
      in
      Ok { !outcome with Pipeline.failures = List.rev !failures; serve = Some report }
