(* The four workloads and their two kinds of run.

   Every workload drives the library's public entry points the way the
   CLI does: [owp run] and [owp check] call [Pipeline.run_config],
   [owp serve] calls [Serve.run].  A run is a closed loop with one
   caller: the next call starts when the previous one returns.  The
   instance seed is the run's seed; the engine seed is
   [Hashtbl.hash] of the instance label, as in E23b, so a build of the
   E23b instance (n = 10^4 at seed 23) replays the committed
   BENCH_E23.json anchors ([engine_seed] says where serve departs from
   it).

   The untraced run times whole calls and reports the end-to-end
   metrics.  The traced run splits the same work by layer: it calls each
   layer's public function on the inputs Pipeline or Serve give it, and
   records a span around every such call.  Both runs check every output
   they time; a call with a wrong output counts as a failed operation. *)

module RC = Owp_core.Run_config
module P = Owp_core.Pipeline
module Stack = Owp_core.Stack
module W = Owp_bench.Workloads
module BM = Owp_matching.Bmatching
module Faults = Owp_simnet.Faults
module Net = Owp_simnet.Simnet
module Wheel = Owp_util.Event_wheel
module Clock = Owp_util.Clock
module Prng = Owp_util.Prng
module Checker = Owp_check.Checker

type kind = Build | Check | Serve

type preset = { n : int; arrivals : string option }

type workload = {
  name : string;
  kind : kind;
  config : seed:int -> RC.t;
  full : preset;
  quick : preset;  (** the scaled-down preset of [--quick] *)
}

let quota = 8

let lid ~seed = RC.make ~engine:RC.Lid ~seed ()

let composed_faults =
  match Faults.of_string "drop=0.05,reorder=0.1,unordered" with
  | Ok f -> f
  | Error msg -> invalid_arg msg

(* The instances are small on purpose.  On a host shared with other
   tenants, a call whose heap runs to hundreds of MB slows by 10-60% for
   seconds to minutes whenever a neighbour loads the memory system, and
   no number of repetitions averages that out; a call on a few MB of
   heap moves by a few percent.  Many short calls per run, reported as
   a median, then give a wall that repeats across runs. *)
let workloads =
  [
    {
      name = "build-2k";
      kind = Build;
      config = lid;
      full = { n = 2_000; arrivals = None };
      quick = { n = 500; arrivals = None };
    };
    {
      name = "build-composed-1k";
      kind = Build;
      config =
        (fun ~seed ->
          RC.make ~engine:RC.Lid ~seed ~faults:composed_faults ~reliable:true
            ~byzantine:"liar:0.2" ~guard:true ());
      full = { n = 1_000; arrivals = None };
      quick = { n = 300; arrivals = None };
    };
    {
      name = "check-2k";
      kind = Check;
      config = (fun ~seed -> RC.make ~engine:RC.Lic_indexed ~seed ~check:true ());
      full = { n = 2_000; arrivals = None };
      quick = { n = 500; arrivals = None };
    };
    {
      name = "serve-churn-1k";
      kind = Serve;
      config = lid;
      full = { n = 1_000; arrivals = Some "0.25:horizon=200" };
      quick = { n = 200; arrivals = Some "0.25:horizon=200" };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* instances and the calls under test                                 *)
(* ------------------------------------------------------------------ *)

let make_instance (p : preset) ~seed =
  W.make ~seed ~family:(W.Gnm_avg_deg 16.0) ~pref_model:W.Random_prefs ~n:p.n ~quota

let arrivals (p : preset) =
  match p.arrivals with
  | None -> Owp_serve.Arrivals.default
  | Some spec -> (
      match Owp_serve.Arrivals.of_string spec with
      | Ok a -> a
      | Error msg -> invalid_arg msg)

(* The E23b convention: the engine seed is the hash of the instance
   label.  Serve seeds its request trace from the engine seed, and a
   session's wall is set by the requests that re-run the pipeline:
   leaves and re-preferences (a join of a member is a no-op).  Their
   number is Poisson, 15 +- 4 on the full preset, and would move the
   wall by more than any change worth measuring.  So serve takes the
   first of hash label, hash (label, 1), hash (label, 2), ... whose
   trace holds the expected number: the trace changes with the seed,
   the amount of work does not. *)
let engine_seed w (p : preset) (inst : W.instance) =
  let label = inst.W.label in
  match w.kind with
  | Build | Check -> Hashtbl.hash label
  | Serve ->
      let module A = Owp_serve.Arrivals in
      let module Sv = Owp_serve.Serve in
      let a = arrivals p in
      let share = (a.A.leave +. a.A.repref) /. (a.A.join +. a.A.leave +. a.A.repref +. a.A.query) in
      let expected = Float.to_int (Float.round (a.A.rate *. a.A.horizon *. share)) in
      let writes seed =
        List.length
          (List.filter
             (fun (r : Sv.request) -> r.Sv.kind = Sv.Leave || r.Sv.kind = Sv.Repref)
             (Sv.generate_requests a ~seed ~n:p.n))
      in
      let rec pick k =
        let seed = if k = 0 then Hashtbl.hash label else Hashtbl.hash (label, k) in
        if writes seed = expected then seed else pick (k + 1)
      in
      pick 0

(* the one public call a workload times *)
let call w (p : preset) cfg (inst : W.instance) =
  match w.kind with
  | Build | Check -> Ok (P.run_config cfg inst.W.prefs)
  | Serve -> Owp_serve.Serve.run ~arrivals:(arrivals p) cfg inst.W.prefs

(* ------------------------------------------------------------------ *)
(* output checks                                                       *)
(* ------------------------------------------------------------------ *)

type anchor = {
  a_n : int;
  a_seed : int;
  prop : int;
  rej : int;
  delivered : int;
  vtime : float;  (** printed with six decimals in BENCH_E23.json *)
}

(* the E23b rows of BENCH_E23.json *)
let e23_anchors =
  [
    { a_n = 10_000; a_seed = 23; prop = 92418; rej = 51428; delivered = 143846; vtime = 11.590479 };
    {
      a_n = 100_000;
      a_seed = 23;
      prop = 921712;
      rej = 515722;
      delivered = 1437434;
      vtime = 12.424454;
    };
  ]

let edges (o : P.outcome) = BM.edge_ids o.P.matching

let stack_of (o : P.outcome) = match o.P.detail with P.Stack r -> Some r | P.Plain -> None

(* Does the composition provably lock LIC's edge set?  The same
   condition Pipeline uses for its Theorem 3 guarantee. *)
let exact (cfg : RC.t) =
  cfg.RC.byzantine = None
  && Float.equal cfg.RC.faults.Faults.crash 0.0
  && ((not (Faults.channel_faulty cfg.RC.faults)) || cfg.RC.reliable)

let anchor_problems anchors ~n ~seed (r : Stack.report) =
  match List.find_opt (fun a -> a.a_n = n && a.a_seed = seed) anchors with
  | None -> []
  | Some a ->
      let same =
        r.Stack.prop_count = a.prop && r.Stack.rej_count = a.rej
        && r.Stack.delivered = a.delivered
        && Float.abs (r.Stack.completion_time -. a.vtime) < 5e-7
      in
      if same then []
      else
        [
          Printf.sprintf
            "E23 anchor n=%d seed=%d: got PROP %d REJ %d delivered %d v-time %.6f, \
             want %d %d %d %.6f"
            n seed r.Stack.prop_count r.Stack.rej_count r.Stack.delivered
            r.Stack.completion_time a.prop a.rej a.delivered a.vtime;
        ]

let layer_key (r : Stack.report) =
  String.concat ";"
    (List.map
       (fun (l : Stack.layer) ->
         l.Stack.layer ^ ":"
         ^ String.concat ","
             (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) l.Stack.counters))
       r.Stack.layers)

let edge_digest es = Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int es)))

(* What must hold of one call's output, and the key that must repeat
   exactly across the calls of a run (the engines are deterministic). *)
let verify ~anchors ~reference ~n ~seed w cfg (o : P.outcome) =
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  let key =
    match w.kind with
    | Build -> (
        if o.P.quiesced <> Some true then fail "the protocol run did not quiesce";
        match stack_of o with
        | None ->
            fail "no protocol report";
            ""
        | Some r ->
            if not (List.is_empty r.Stack.damage) then fail "bounded-damage violations";
            if exact cfg && edges o <> Lazy.force reference then
              fail "LID edge set differs from Lic_indexed";
            List.iter fail (anchor_problems anchors ~n ~seed r);
            Printf.sprintf "%s|%h|%s" (edge_digest (edges o)) r.Stack.completion_time
              (layer_key r))
    | Check ->
        (match o.P.check_report with
        | Some rep when Checker.ok rep -> ()
        | Some _ -> fail "checker violations"
        | None -> fail "no checker report");
        edge_digest (edges o)
    | Serve -> (
        if o.P.quiesced = Some false then fail "the last engine run did not quiesce";
        (match stack_of o with
        | Some r when not (List.is_empty r.Stack.damage) -> fail "bounded-damage violations"
        | _ -> ());
        match o.P.serve with
        | None ->
            fail "no serve report";
            ""
        | Some s ->
            let module S = Owp_core.Serve_report in
            if s.S.served + s.S.shed <> s.S.offered then fail "served + shed <> offered";
            S.summary s)
  in
  (List.rev !problems, key)

(* ------------------------------------------------------------------ *)
(* results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : float list }

type result = {
  workload : string;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;
  shown : metric list;  (** printed in the table, not in the result object *)
}

type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let new_tally () = { attempted = 0; failed = 0; failures = [] }

let account t label problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.failures <- t.failures @ List.map (fun p -> label ^ ": " ^ p) problems
  end

let metric name unit_ samples =
  { name; value = (match samples with [] -> 0.0 | xs -> Quartiles.median xs); unit_; samples }

let single name unit_ v = { name; value = v; unit_; samples = [ v ] }

let finish ?(shown = []) workload (t : tally) metrics =
  { workload; attempted = t.attempted; failed = t.failed; failures = t.failures; metrics; shown }

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* the untraced run: end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

(* The host is shared.  Whenever a neighbour loads the memory system,
   every allocating OCaml program on it slows, by 10-50% for seconds to
   minutes at a time; a CPU-bound loop does not.  So the untraced run
   times a fixed kernel right before every timed call and scales the
   call's wall by [quiet_kernel_ms] over the kernel's wall: the time the
   call takes when the host runs the kernel in [quiet_kernel_ms], as
   this one does when it is quiet.  The kernel uses the standard
   library only (hashing, sorting, building lists: the allocation
   pattern of the calls under test), so no change to the library moves
   it. *)
let quiet_kernel_ms = 25.0

let kernel () =
  let n = 40_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i * 7919 land 0xfffff) (float_of_int i, [ i ])
  done;
  let a = Array.init n (fun i -> float_of_int (i * 104729 mod 65536)) in
  Array.sort Float.compare a;
  let picked =
    List.filter_map
      (fun i ->
        let k = i * 7919 land 0xfffff in
        if k land 3 = 0 then Option.map (fun (f, l) -> (k, f, l)) (Hashtbl.find_opt h k) else None)
      (List.init n Fun.id)
  in
  ignore (Sys.opaque_identity (a, List.sort (fun (x, _, _) (y, _, _) -> Int.compare x y) picked))

(* [f]'s result, its wall in ms and its wall scaled by the kernel's;
   both start from a collected heap *)
let against_kernel f =
  Gc.full_major ();
  let (), kernel_ms = Clock.time kernel in
  Gc.full_major ();
  let r, ms = Clock.time f in
  (r, ms, ms *. quiet_kernel_ms /. kernel_ms)

(* Set-up is built [reps] times and reported as a median of scaled
   walls.  The count is fixed, not timed, so the heap the calls start
   from, and with it [peak_heap_mb], does not depend on the host's
   speed.  Only the last instance is kept alive. *)
let setup (p : preset) ~seed ~reps =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    let inst, _, scaled_ms = against_kernel (fun () -> make_instance p ~seed) in
    times := scaled_ms :: !times;
    last := Some inst
  done;
  (Option.get !last, List.rev !times)

(* A run measures several instances in turn, one phase each, so its
   median is not one graph's: the cost of a call varies by a few
   percent from instance to instance at these sizes.  Phase 0 is the
   run's seed itself. *)
let phases = 5

let phase_seed ~seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

let untraced ?(anchors = e23_anchors) ~quick ~seconds w ~seed =
  let p = if quick then w.quick else w.full in
  let phases, min_reps, seconds = if quick then (1, 1, 0.0) else (phases, 2, seconds) in
  let tally = new_tally () in
  let walls = ref [] and raw_walls = ref [] and setups = ref [] and peak = ref 0 in
  let t_run = Clock.now () in
  for i = 0 to phases - 1 do
    let seed = phase_seed ~seed i in
    let inst, times = setup p ~seed ~reps:(if quick then 1 else 5) in
    setups := !setups @ times;
    let cfg = w.config ~seed:(engine_seed w p inst) in
    let reference =
      lazy (BM.edge_ids (Owp_core.Lic_indexed.run inst.W.weights ~capacity:inst.W.capacity))
    in
    let first_key = ref None in
    let checked label out =
      match out with
      | Error msg -> account tally label [ msg ]
      | Ok o ->
          let problems, key = verify ~anchors ~reference ~n:p.n ~seed w cfg o in
          let drift =
            match !first_key with
            | None ->
                first_key := Some key;
                []
            | Some k when String.equal k key -> []
            | Some _ -> [ "output differs from the phase's first call's" ]
          in
          account tally label (problems @ drift)
    in
    (* an untimed warm-up call grows the heap from set-up's size, so the
       timed calls all start from the same state *)
    Gc.full_major ();
    checked (Printf.sprintf "phase %d warm-up call" i) (call w p cfg inst);
    (* another call starts only if, at the phase's average pace so far
       (collection included), it ends within the phase's share of
       [seconds], counted from the start of the run *)
    let t0 = Clock.now () and calls = ref 0 in
    let ends_ms = float_of_int (i + 1) *. seconds *. 1000.0 /. float_of_int phases in
    let more () =
      !calls < min_reps
      || Clock.elapsed_ms ~since:t_run +. (Clock.elapsed_ms ~since:t0 /. float_of_int !calls)
         <= ends_ms
    in
    while more () do
      let out, raw_ms, ms = against_kernel (fun () -> call w p cfg inst) in
      walls := ms :: !walls;
      raw_walls := raw_ms :: !raw_walls;
      incr calls;
      (* the peak so far over set-ups, warm-ups and the first [min_reps]
         calls of each phase, which does not depend on how many calls the
         time budget allows *)
      if !calls = min_reps then peak := (Gc.quick_stat ()).Gc.top_heap_words;
      checked (Printf.sprintf "phase %d call %d" i !calls) out
    done
  done;
  let seconds_of = List.rev_map (fun ms -> ms /. 1000.0) in
  finish w.name tally
    ~shown:[ metric "raw_wall_s" "s" (seconds_of !raw_walls) ]
    [
      metric "wall_ref_s" "s" (seconds_of !walls);
      metric "setup_s" "s" (List.map (fun ms -> ms /. 1000.0) !setups);
      single "peak_heap_mb" "MB" (mb_of_words !peak);
    ]

(* ------------------------------------------------------------------ *)
(* the traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

(* Stack.run with exactly the arguments Pipeline.run_config passes for a
   LID-family config. *)
let stack_run ?(honest_guard = false) (cfg : RC.t) prefs w ~capacity =
  let f = cfg.RC.faults and seed = cfg.RC.seed in
  let n = Array.length capacity in
  let adversaries =
    if honest_guard then Some (Array.make n None)
    else
      Option.map
        (fun spec ->
          Owp_simnet.Adversary.assign
            (Prng.create (seed lxor 0xB12))
            ~n
            (Owp_simnet.Adversary.parse_spec spec))
        cfg.RC.byzantine
  in
  Stack.run ~seed ~fifo:f.Faults.fifo ~faults:(Faults.channel f) ~schedule:cfg.RC.schedule
    ~reliable:(cfg.RC.reliable || cfg.RC.engine = RC.Lid_reliable)
    ~sim_shards:cfg.RC.sim_shards ?patience:(Faults.effective_patience f)
    ?deadline:cfg.RC.deadline ?max_rounds:cfg.RC.max_rounds
    ~crashes:(P.crash_schedule ~seed ~n f.Faults.crash)
    ?adversaries ~guard:(cfg.RC.guard || honest_guard) ~prefs w ~capacity

(* The ablation's compositions: the workload's own (a centralized
   engine's stand-in is plain LID), with no layers at all, and the
   workload's own with each of two layers toggled.  A layer the
   composition has is removed: faults and ARQ, or adversaries and
   guard.  A layer it lacks is added: ARQ over the clean channel, or
   the guard over an adversary environment with no Byzantine node
   ([stack_run ~honest_guard]). *)
let as_stack (cfg : RC.t) =
  if RC.lid_family cfg.RC.engine then { cfg with RC.check = false }
  else RC.make ~engine:RC.Lid ~seed:cfg.RC.seed ()

let has_transport (cfg : RC.t) = cfg.RC.reliable || Faults.channel_faulty cfg.RC.faults

let has_guard (cfg : RC.t) = Option.is_some cfg.RC.byzantine

let toggle_transport (cfg : RC.t) =
  if has_transport cfg then { cfg with RC.faults = Faults.none; reliable = false }
  else { cfg with RC.reliable = true }

let without_guard (cfg : RC.t) = { cfg with RC.byzantine = None; guard = false }

(* the checkers Pipeline asserts on a run with adversaries *)
let instance_level = [ "edge-validity"; "quota"; "weight-symmetry"; "satisfaction-range" ]

let same_report (a : Stack.report) (b : Stack.report) =
  a.Stack.prop_count = b.Stack.prop_count
  && a.Stack.rej_count = b.Stack.rej_count
  && a.Stack.delivered = b.Stack.delivered
  && Float.equal a.Stack.completion_time b.Stack.completion_time
  && BM.edge_ids a.Stack.matching = BM.edge_ids b.Stack.matching

(* A relay over the public Simnet API with a forwarding handler and no
   protocol: the per-frame floor of the simulator.  It opens with the
   protocol's burst (one message per quota slot) and forwards each
   delivery to a neighbour until [frames] have been sent. *)
let relay g ~seed ~frames =
  let n = Graph.node_count g in
  let sim = Net.create ~seed ~nodes:n ~delay:(Net.Uniform (0.5, 1.5)) () in
  let sent = ref 0 in
  let forward src hop =
    if !sent < frames then begin
      let nb = Graph.neighbors g src in
      let dst = if Array.length nb = 0 then (src + 1) mod n else fst nb.(hop mod Array.length nb) in
      incr sent;
      Net.send sim ~src ~dst (hop + 1)
    end
  in
  Net.set_handler sim (fun ~src:_ ~dst hop -> forward dst hop);
  for i = 0 to n - 1 do
    for k = 0 to min quota (Graph.degree g i) - 1 do
      forward i k
    done
  done;
  Net.run sim;
  Net.messages_delivered sim

(* add/pop_into on the event wheel holding the protocol's opening
   population, for [events] pops; returns the pops and whether they
   came out in time order.  Width 0.5 is what Simnet picks for
   Uniform (0.5, 1.5) delays. *)
let wheel_loop ~seed ~population ~events =
  let w = Wheel.create ~width:0.5 () in
  let rng = Prng.create seed in
  let seq = ref 0 in
  for i = 0 to population - 1 do
    Wheel.add w ~at:(0.5 +. Prng.float rng 1.0) ~seq:!seq i;
    incr seq
  done;
  let popped = ref 0 and last = ref 0.0 and ordered = ref true in
  while !popped < events && Wheel.pop_into w do
    incr popped;
    let at = Wheel.last_at w in
    if at < !last then ordered := false;
    last := at;
    Wheel.add w ~at:(at +. 0.5 +. Prng.float rng 1.0) ~seq:!seq (Wheel.last_pay w);
    incr seq
  done;
  (!popped, !ordered)

let timed f =
  Gc.full_major ();
  let minor0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let r, ms = Clock.time f in
  let minor1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  (r, ms, minor1 -. minor0, g1.Gc.major_words -. g0.Gc.major_words)

let per_frame x frames = if frames = 0 then 0.0 else x /. float_of_int frames

let traced ?(anchors = e23_anchors) ~quick w ~seed =
  let p = if quick then w.quick else w.full in
  (* every probe runs [rounds] times and reports its median: a single
     sample of a call this short is mostly the host's noise *)
  let rounds = if quick then 1 else 7 in
  let sp = Spans.create () in
  (* a top-level span starts from a collected heap, like an untraced
     call; nested spans must not add collections to their parent *)
  let span name f =
    Gc.full_major ();
    Spans.record sp name f
  in
  let child name f = Spans.record sp name f in
  let tally = new_tally () in
  let inst = span "setup" (fun () -> make_instance p ~seed) in
  let prefs = inst.W.prefs and capacity = inst.W.capacity and g = inst.W.graph in
  let w8 = inst.W.weights in
  let n = Graph.node_count g in
  let cfg = w.config ~seed:(engine_seed w p inst) in
  let reference = lazy (BM.edge_ids (Owp_core.Lic_indexed.run w8 ~capacity)) in
  (* Untraced Pipeline calls, the baseline of the tracing overhead: the
     workload's own call, or for serve the engine call Serve makes for
     the bootstrap and for each write, on the session's instance. *)
  let session = ref None in
  let calls =
    match w.kind with
    | Build | Check ->
        let call_once label =
          let out, ms, minor, major = timed (fun () -> P.run_config cfg prefs) in
          account tally label (fst (verify ~anchors ~reference ~n:p.n ~seed w cfg out));
          (out, ms, minor, major)
        in
        (* the first call grows the heap; the split below runs on a grown
           heap, so the baseline it is compared with must too *)
        ignore (call_once "warm-up call");
        List.init rounds (fun _ -> call_once "pipeline call")
    | Serve ->
        (match span "serve.run" (fun () -> call w p cfg inst) with
        | Ok o ->
            account tally "serve session" (fst (verify ~anchors ~reference ~n:p.n ~seed w cfg o));
            session := o.P.serve
        | Error msg -> account tally "serve session" [ msg ]);
        List.init 20 (fun i ->
            let c =
              if i = 0 then cfg
              else { cfg with RC.seed = cfg.RC.seed lxor (0x5E4E + (7919 * i)) }
            in
            let out, ms, minor, major = timed (fun () -> P.run_config ~capacity c prefs) in
            account tally "engine call"
              (if out.P.quiesced = Some true && edges out = Lazy.force reference then []
               else [ "engine call did not reach LIC's edge set" ]);
            (out, ms, minor, major))
  in
  let first, _, _, _ = List.hd calls in
  let scfg = as_stack cfg in
  let population =
    List.fold_left (fun acc i -> acc + min quota (Graph.degree g i)) 0 (List.init n Fun.id)
  in
  (* One round of probes: the first call again, split into its phases,
     each through its public function (weights, engine, satisfaction
     profile, checkers); the layer probes on this workload's instance;
     and the stack ablation, every run a top-level span. *)
  let round () =
    let stack_full = ref None in
    let decomposed =
      span "pipeline.run_config" (fun () ->
          let wts = child "pipeline.weights" (fun () -> P.weights prefs) in
          let m =
            if RC.lid_family cfg.RC.engine then begin
              let r = child "stack.run" (fun () -> stack_run cfg prefs wts ~capacity) in
              stack_full := Some r;
              r.Stack.matching
            end
            else child "lic_indexed.run" (fun () -> Owp_core.Lic_indexed.run wts ~capacity)
          in
          ignore (child "pipeline.satisfaction_profile" (fun () -> P.satisfaction_profile prefs m));
          if cfg.RC.check then begin
            let rep = child "checker.run" (fun () -> Checker.run (Checker.of_matching ~prefs wts m)) in
            account tally "checker in the pipeline" (if Checker.ok rep then [] else [ "checker violations" ])
          end;
          m)
    in
    account tally "decomposition"
      (if BM.edge_ids decomposed <> edges first then
         [ "decomposed edge set differs from the pipeline's" ]
       else
         match (!stack_full, stack_of first) with
         | Some a, Some b when not (same_report a b) ->
             [ "direct Stack.run report differs from the pipeline's" ]
         | _ -> []);
    if not cfg.RC.check then begin
      let only = if cfg.RC.byzantine = None then None else Some instance_level in
      let rep =
        span "checker.run" (fun () -> Checker.run ?only (Checker.of_matching ~prefs w8 decomposed))
      in
      account tally "checker" (if Checker.ok rep then [] else [ "checker violations" ])
    end;
    let indexed = span "lic_indexed.run" (fun () -> Owp_core.Lic_indexed.run w8 ~capacity) in
    account tally "lic_indexed"
      (if BM.edge_ids indexed = Lazy.force reference then [] else [ "Lic_indexed is not deterministic" ]);
    let lic = span "lic.run" (fun () -> Owp_core.Lic.run w8 ~capacity) in
    account tally "lic"
      (if BM.edge_ids lic = BM.edge_ids indexed then [] else [ "Lic and Lic_indexed differ (Lemma 6)" ]);
    let lists = Array.init n (fun i -> Array.copy (Preference.list prefs i)) in
    let quotas = Array.init n (Preference.quota prefs) in
    let rebuilt = span "preference.create" (fun () -> Preference.create g ~quota:quotas ~lists) in
    account tally "preference.create"
      (if List.for_all (fun i -> Preference.list rebuilt i = Preference.list prefs i) (List.init n Fun.id)
       then []
       else [ "rebuilt preference lists differ" ]);
    let full = span "stack.run.full" (fun () -> stack_run scfg prefs w8 ~capacity) in
    let plain =
      span "stack.run.plain" (fun () -> stack_run (lid ~seed:scfg.RC.seed) prefs w8 ~capacity)
    in
    account tally "stack runs"
      ((if full.Stack.all_terminated && plain.Stack.all_terminated then []
        else [ "a stack run did not terminate" ])
      @ (match !stack_full with
        | Some r when not (same_report r full) -> [ "Stack.run is not deterministic" ]
        | _ -> [])
      @
      if exact scfg && (not (has_transport scfg)) && not (same_report full plain) then
        [ "zero-layer Stack.run is not deterministic" ]
      else []);
    let toggled name run =
      let r = span name run in
      account tally name (if r.Stack.all_terminated then [] else [ "did not terminate" ])
    in
    toggled
      (if has_transport scfg then "stack.run.no_transport" else "stack.run.with_transport")
      (fun () -> stack_run (toggle_transport scfg) prefs w8 ~capacity);
    if has_guard scfg then
      toggled "stack.run.no_guard" (fun () -> stack_run (without_guard scfg) prefs w8 ~capacity)
    else
      toggled "stack.run.with_guard" (fun () ->
          stack_run ~honest_guard:true scfg prefs w8 ~capacity);
    let frames = full.Stack.delivered in
    let relayed = span "simnet.relay" (fun () -> relay g ~seed ~frames) in
    account tally "simnet relay"
      (if relayed = frames then [] else [ "relay delivered a different frame count" ]);
    let popped, ordered =
      span "event_wheel.loop" (fun () -> wheel_loop ~seed ~population ~events:frames)
    in
    account tally "event wheel"
      (if ordered && popped = frames then [] else [ "event wheel popped out of order" ]);
    (full, relayed, popped)
  in
  (* the rounds repeat deterministic work: the last one's outputs stand
     for all of them *)
  let full, relayed, popped = List.nth (List.init rounds (fun _ -> round ())) (rounds - 1) in
  (* ---- metrics ---- *)
  let all = Spans.spans sp in
  (* the median over the spans named [name] of [f] *)
  let med name f =
    match List.filter (fun s -> s.Spans.name = name) all with
    | [] -> 0.0
    | ss -> Quartiles.median (List.map f ss)
  in
  let one name = med name Spans.duration in
  let call_ms = List.map (fun (_, ms, _, _) -> ms) calls in
  let call_median = Quartiles.median call_ms in
  let engine_ms = List.map (fun (o, _, _, _) -> o.P.wall_ms) calls in
  let weights_ms = one "pipeline.weights" and profile_ms = one "pipeline.satisfaction_profile" in
  let checker_in_call = if cfg.RC.check then one "checker.run" else 0.0 in
  let full_ms = one "stack.run.full" and plain_ms = one "stack.run.plain" in
  (* what a layer costs on this instance: the composition with it
     against the composition without it *)
  let cost ~present ~without ~added =
    if present then full_ms -. one without else one added -. full_ms
  in
  let frames = full.Stack.delivered in
  let bare_ns = per_frame (one "simnet.relay" *. 1e6) relayed in
  let module S = Owp_core.Serve_report in
  let serve_count f = match !session with Some s -> float_of_int (f s) | None -> 0.0 in
  let count name v = single name "count" (float_of_int v) in
  let metrics =
    [
      metric "pipeline.call_ms" "ms" call_ms;
      metric "pipeline.engine_ms" "ms" engine_ms;
      single "pipeline.weights_ms" "ms" weights_ms;
      single "pipeline.profile_ms" "ms" profile_ms;
      single "pipeline.residual_ms" "ms"
        (call_median -. Quartiles.median engine_ms -. weights_ms -. profile_ms -. checker_in_call);
      metric "pipeline.minor_words" "words" (List.map (fun (_, _, w, _) -> w) calls);
      metric "pipeline.major_words" "words" (List.map (fun (_, _, _, w) -> w) calls);
      single "checker.run_ms" "ms" (one "checker.run");
      single "lic_indexed.run_ms" "ms" (one "lic_indexed.run");
      single "lic.run_ms" "ms" (one "lic.run");
      single "preference.create_ms" "ms" (one "preference.create");
      single "stack.full_ms" "ms" full_ms;
      single "stack.plain_ms" "ms" plain_ms;
      single "transport.cost_ms" "ms"
        (cost ~present:(has_transport scfg) ~without:"stack.run.no_transport"
           ~added:"stack.run.with_transport");
      single "guard.cost_ms" "ms"
        (cost ~present:(has_guard scfg) ~without:"stack.run.no_guard" ~added:"stack.run.with_guard");
      count "stack.delivered" frames;
      count "lid.prop" full.Stack.prop_count;
      count "lid.rej" full.Stack.rej_count;
      single "stack.useful_ratio" "ratio"
        (per_frame (float_of_int (full.Stack.prop_count + full.Stack.rej_count)) frames);
      count "transport.retransmissions" (Stack.counter full ~layer:"transport" "retransmissions");
      single "transport.frames_per_message" "ratio" (Stack.overhead full);
      count "channel.dropped" full.Stack.dropped;
      count "guard.quarantine_events" full.Stack.quarantine_events;
      count "detector.synthetic_rejects" full.Stack.synthetic_rejects;
      single "stack.minor_words_per_frame" "words"
        (per_frame (med "stack.run.full" (fun s -> s.Spans.minor_words)) frames);
      single "stack.major_words_per_frame" "words"
        (per_frame (med "stack.run.full" (fun s -> s.Spans.major_words)) frames);
      single "stack.frames_per_s" "1/s"
        (if full_ms > 0.0 then float_of_int frames *. 1000.0 /. full_ms else 0.0);
      single "simnet.bare_ns_per_frame" "ns" bare_ns;
      single "simnet.bare_minor_words_per_frame" "words"
        (per_frame (med "simnet.relay" (fun s -> s.Spans.minor_words)) relayed);
      single "stack.handler_ns_per_frame" "ns" (per_frame (full_ms *. 1e6) frames -. bare_ns);
      single "event_wheel.ns_per_event" "ns" (per_frame (one "event_wheel.loop" *. 1e6) popped);
      single "serve.served" "count" (serve_count (fun s -> s.S.served));
      single "serve.shed" "count" (serve_count (fun s -> s.S.shed));
      single "serve.mutations" "count" (serve_count (fun s -> s.S.joins + s.S.leaves + s.S.reprefs));
      single "serve.oracle_samples" "count" (serve_count (fun s -> s.S.oracle_samples));
      single "tracing.overhead_pct" "%"
        ((one "pipeline.run_config" -. call_median) /. call_median *. 100.0);
    ]
  in
  (finish w.name tally metrics, sp)
