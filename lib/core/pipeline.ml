module Bmatching = Owp_matching.Bmatching
module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule

type engine = Run_config.engine = Lic_indexed | Lid | Lid_reliable | Dynamics

type detail = Plain | Stack of Stack.report

type outcome = {
  engine : engine;
  matching : Bmatching.t;
  total_satisfaction : float;
  mean_satisfaction : float;
  total_weight : float;
  profile : float array;
  guarantee : float option;
  messages : int option;
  rounds : float option;
  wall_ms : float;
  quiesced : bool option;
  check_report : Owp_check.Checker.report option;
  stabilize : Owp_check.Stabilize.certificate option;
  anytime : Owp_check.Anytime.certificate option;
  failures : string list;
  serve : Serve_report.t option;
  detail : detail;
}

let weights prefs = Weights.of_preference prefs

let capacity_of prefs =
  let g = Preference.graph prefs in
  Array.init (Graph.node_count g) (Preference.quota prefs)

let satisfaction_profile prefs m =
  let g = Preference.graph prefs in
  Array.init (Graph.node_count g) (Bmatching.satisfaction prefs m)

let stable_dynamics prefs =
  let outcome = Owp_stable.Fixtures.solve prefs in
  outcome.Owp_stable.Fixtures.matching

(* deterministic (seed-derived) fail-stop schedule: each node crashes
   independently with probability [frac] at a random early point of the
   run, and never restarts *)
let crash_schedule ~seed ~n frac =
  if frac <= 0.0 then []
  else begin
    let rng = Owp_util.Prng.create (seed lxor 0xC4A5) in
    List.init n (fun v -> v)
    |> List.filter (fun _ -> Owp_util.Prng.bernoulli rng frac)
    |> List.map (fun victim ->
           {
             Stack.victim;
             crash_at = 0.1 +. Owp_util.Prng.float rng 5.0;
             restart_at = None;
           })
  end

(* the crash-only LIC reference of a scheduled run: Algorithm 2 on the
   subgraph induced by the nodes that ended the run participating
   (correct, live, non-retired), with sub edge ids mapped back to the
   original graph's — the edge set a self-stabilized run must converge
   to once the weather clears.

   LID locks are irrevocable, so a slot a survivor mutually locked with
   a peer that later crashed is spent forever; the reference relativizes
   quota by those wasted slots (exactly the move the bounded-damage
   certificate makes for slots locked toward Byzantine peers) — without
   it, exact convergence is provably unachievable under crash-restart
   episodes, and the miss cascades through the survivors *)
let stabilize_reference prefs ~participating ~matching =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  let wasted = Array.make n 0 in
  List.iter
    (fun eid ->
      let u, v = Graph.edge_endpoints g eid in
      match (participating.(u), participating.(v)) with
      | true, false -> wasted.(u) <- wasted.(u) + 1
      | false, true -> wasted.(v) <- wasted.(v) + 1
      | _ -> ())
    (Bmatching.edge_ids matching);
  let old_of_new, m =
    Stack.lic_reference prefs
      ~keep:(fun i -> participating.(i))
      ~quota:(fun o -> max 0 (Preference.quota prefs o - wasted.(o)))
  in
  let sub = Bmatching.graph m in
  List.filter_map
    (fun sub_eid ->
      let u, v = Graph.edge_endpoints sub sub_eid in
      Graph.find_edge g old_of_new.(u) old_of_new.(v))
    (Bmatching.edge_ids m)

(* which invariants a result is expected to satisfy: LIC/LID carry the
   full set of paper guarantees; the stable-fixtures dynamics optimises
   preference stability, not eq. 9 weights, and a Byzantine-restricted
   matching is deliberately partial, so only the instance-level
   invariants apply to those *)
let instance_level = [ "edge-validity"; "quota"; "weight-symmetry"; "satisfaction-range" ]

let checkers_for cfg =
  if cfg.Run_config.byzantine <> None then instance_level
  else if Run_config.budgeted cfg then
    (* a cutoff matching is deliberately partial: blocking pairs and
       maximality gaps are the measured degradation ({!Owp_check.Anytime}
       quantifies them), so only instance-level invariants are asserted *)
    instance_level
  else
    match cfg.Run_config.engine with
    | Lic_indexed | Lid | Lid_reliable ->
        (* under crashes, a crashed peer legitimately breaks
           maximality/Theorem 3 for its survivors — but so does an
           unguarded lossy channel, so the checker subset is decided by
           the caller's check flag together with what quiesced, not
           restricted here *)
        Owp_check.Checker.names
    | Dynamics -> instance_level

(* the run's one verdict, a line per failed gate ([] = pass).  A VOID
   self-stabilization certificate is waived under adversaries (the
   damage audit gates) and under a budget (the anytime certificate
   gates): neither run can converge exactly *)
let failures cfg ~quiesced ~detail ~anytime ~stabilize ~check_report =
  let void certified = Option.fold ~none:false ~some:(fun c -> not (certified c)) in
  let damage = match detail with Stack r -> List.length r.Stack.damage | Plain -> 0 in
  let violations = Option.fold ~none:0 ~some:Owp_check.Checker.violation_count check_report in
  let waived = cfg.Run_config.byzantine <> None || Run_config.budgeted cfg in
  List.filter_map
    (fun (failed, line) -> if failed then Some line else None)
    [
      (quiesced = Some false, "the protocol run did not quiesce");
      (damage > 0, Printf.sprintf "bounded damage: %d violation(s)" damage);
      (void Owp_check.Anytime.certified anytime, "anytime certificate VOID");
      ( void Owp_check.Stabilize.certified stabilize && not waived,
        "self-stabilization certificate VOID" );
      (violations > 0, Printf.sprintf "checker: %d invariant violation(s)" violations);
    ]

let rec run_config ?capacity cfg prefs =
  let cfg =
    match Run_config.validate cfg with
    | Ok cfg -> cfg
    | Error msg -> invalid_arg ("Pipeline.run_config: " ^ msg)
  in
  let w = weights prefs in
  (* [capacity] overrides the preference quotas: the serving layer
     models membership (a left node is capacity 0, a rejoined one gets
     its quota back) without rebuilding the preference system *)
  let capacity = match capacity with Some c -> c | None -> capacity_of prefs in
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  let bmax = Preference.max_quota prefs in
  let bound = Theory.theorem3_bound ~bmax in
  let seed = cfg.Run_config.seed in
  let t0 = Owp_util.Clock.now () in
  let matching, messages, guarantee, quiesced, rounds, detail =
    match cfg.Run_config.engine with
    | Lic_indexed -> (Lic_indexed.run w ~capacity, None, Some bound, None, None, Plain)
    | (Lid | Lid_reliable) as engine ->
        let f = cfg.Run_config.faults in
        let reliable = cfg.Run_config.reliable || engine = Lid_reliable in
        let crashes = crash_schedule ~seed ~n f.Faults.crash in
        let adversaries =
          match cfg.Run_config.byzantine with
          | None -> None
          | Some spec ->
              let rng = Owp_util.Prng.create (seed lxor 0xB12) in
              Some
                (Owp_simnet.Adversary.assign rng ~n
                   (Owp_simnet.Adversary.parse_spec spec))
        in
        let r =
          Stack.run ~seed ~fifo:f.Faults.fifo ~faults:(Faults.channel f)
            ~schedule:cfg.Run_config.schedule ~reliable
            ?patience:(Faults.effective_patience f)
            ?deadline:cfg.Run_config.deadline
            ?max_rounds:cfg.Run_config.max_rounds ~crashes ?adversaries
            ~guard:cfg.Run_config.guard ~prefs w ~capacity
        in
        let exact =
          (* the edge set is exactly LIC's — so Theorem 3 applies — only
             when no peer misbehaved or died, every channel fault was
             masked by the transport, no scheduled weather perturbed the
             run (convergence after weather is certified empirically by
             Owp_check.Stabilize, not proven), and no budget cut the run
             short *)
          cfg.Run_config.byzantine = None
          && List.is_empty crashes
          && ((not (Faults.channel_faulty f)) || reliable)
          && Schedule.is_empty cfg.Run_config.schedule
          && Option.is_none r.Stack.cutoff
        in
        ( r.Stack.matching,
          Some (r.Stack.prop_count + r.Stack.rej_count),
          (if exact then Some bound else None),
          Some r.Stack.all_terminated,
          Some r.Stack.completion_time,
          Stack r )
    | Dynamics -> (stable_dynamics prefs, None, None, None, None, Plain)
  in
  let wall_ms = Owp_util.Clock.elapsed_ms ~since:t0 in
  let profile = satisfaction_profile prefs matching in
  let nodes_with_lists = ref 0 and total = ref 0.0 in
  Array.iteri
    (fun i s ->
      if Graph.degree g i > 0 then begin
        incr nodes_with_lists;
        total := !total +. s
      end)
    profile;
  let check_report =
    if cfg.Run_config.check then
      Some
        (Owp_check.Checker.run ~only:(checkers_for cfg)
           (Owp_check.Checker.of_matching ~prefs w matching))
    else None
  in
  let stabilize =
    (* the self-stabilization certificate of a scheduled run: the final
       edge set, restricted to participating endpoints (a lock wasted on
       a Byzantine peer is the damage certificate's business), must
       equal the crash-only LIC reference once the weather ends *)
    match detail with
    | Stack r when not (Schedule.is_empty cfg.Run_config.schedule) ->
        let participating = r.Stack.participating in
        let served =
          List.filter
            (fun eid ->
              let u, v = Graph.edge_endpoints g eid in
              participating.(u) && participating.(v))
            (Bmatching.edge_ids r.Stack.matching)
        in
        let deaths =
          cfg.Run_config.faults.Faults.crash > 0.0
          || (match Schedule.down_spans cfg.Run_config.schedule with
             | [] -> false
             | _ -> true)
        in
        Some
          (Owp_check.Stabilize.check
             (Owp_check.Stabilize.instance ~prefs ~deaths w ~capacity ~edges:served
                ~reference:
                  (stabilize_reference prefs ~participating
                     ~matching:r.Stack.matching)
                ~t_heal:(Schedule.end_time cfg.Run_config.schedule)
                ~quiesce_at:r.Stack.completion_time
                ~quiesced:r.Stack.all_terminated))
    | _ -> None
  in
  let anytime =
    (* a cutoff is certified against the same run with the budget
       lifted: one seed, one event prefix, the same effective capacity *)
    match detail with
    | Stack { Stack.cutoff = Some c; _ } ->
        let unbudgeted = { cfg with Run_config.deadline = None; max_rounds = None; check = false } in
        let reference = Bmatching.edge_ids (run_config ~capacity unbudgeted prefs).matching in
        Some
          (Owp_check.Anytime.check
             (Owp_check.Anytime.instance ~prefs ~reference w ~capacity ~budget:c.Stack.cut_at
                ~edges:(Bmatching.edge_ids matching)))
    | _ -> None
  in
  {
    engine = cfg.Run_config.engine;
    matching;
    total_satisfaction = !total;
    mean_satisfaction =
      (if !nodes_with_lists = 0 then 0.0 else !total /. float_of_int !nodes_with_lists);
    total_weight = Bmatching.weight matching w;
    profile;
    guarantee;
    messages;
    rounds;
    wall_ms;
    quiesced;
    check_report;
    stabilize;
    anytime;
    failures = failures cfg ~quiesced ~detail ~anytime ~stabilize ~check_report;
    serve = None;
    detail;
  }
