module Simnet = Owp_simnet.Simnet
module Transport = Owp_simnet.Transport
module Adversary = Owp_simnet.Adversary
module Schedule = Owp_simnet.Schedule
module Bmatching = Owp_matching.Bmatching
module Violation = Owp_check.Violation
module Byzantine = Owp_check.Byzantine
module Explore = Owp_check.Explore

(* ------------------------------------------------------------------ *)
(* public types                                                        *)
(* ------------------------------------------------------------------ *)

type crash_plan = { victim : int; crash_at : float; restart_at : float option }
type layer = { layer : string; counters : (string * int) list }

type cutoff = {
  cut_at : float;
  released : int;
  half_locks : int;
  abandoned : int;
}

type report = {
  matching : Bmatching.t;
  correct : bool array;
  participating : bool array;
  prop_count : int;
  rej_count : int;
  delivered : int;
  dropped : int;
  synthetic_rejects : int;
  quarantine_events : int;
  byz_offenders : int;
  byz_quarantined : int;
  offence_counts : (string * int) list;
  wasted_slots : int;
  completion_time : float;
  all_terminated : bool;
  unterminated : int list;
  quiescence : Violation.t list;
  damage : Violation.t list;
  cutoff : cutoff option;
  layers : layer list;
}

let counter r ~layer name =
  match List.find_opt (fun l -> l.layer = layer) r.layers with
  | None -> 0
  | Some l -> Option.value ~default:0 (List.assoc_opt name l.counters)

let overhead r =
  let protocol = r.prop_count + r.rej_count in
  let frames = counter r ~layer:"transport" "frames" in
  if protocol = 0 || frames = 0 then 1.0
  else float_of_int frames /. float_of_int protocol

(* virtual time one propose–answer round takes under a delay model —
   the conversion behind [max_rounds].  For stochastic models this is a
   representative per-hop figure (the uniform upper bound; twice the
   exponential mean covers ~86% of samples), not a worst case. *)
let round_length = function
  | Simnet.Unit -> 1.0
  | Simnet.Uniform (_, hi) -> hi
  | Simnet.Exponential mean -> 2.0 *. mean
  | Simnet.PerLink _ -> 1.0

(* ------------------------------------------------------------------ *)
(* eq. 9 halves                                                        *)
(* ------------------------------------------------------------------ *)

(* ΔS̄_i(j): node i's half of edge (i,j)'s symmetric weight.  Matches
   Weights.of_preference exactly (same static_delta calls, and IEEE
   addition is commutative), so an all-honest perceived ranking is
   bit-identical to Lid's default weight list. *)
let half prefs i j =
  let b = Preference.quota prefs i and l = Preference.list_len prefs i in
  if b = 0 || l = 0 then 0.0
  else Satisfaction.static_delta ~quota:b ~list_len:l ~rank:(Preference.rank prefs i j)

(* the public structural bound: ΔS̄_j(·) = (1 − R/L)/b_j ≤ 1/b_j, and
   b_j is public — any claim above this is a provable lie *)
let bound prefs j =
  let b = Preference.quota prefs j in
  if b <= 0 then 0.0 else 1.0 /. float_of_int b

(* one guard per node, vetting claims against the public bound *)
let guards_for prefs g =
  Array.init (Graph.node_count g) (fun i ->
      Guard.create ~bound:(bound prefs) ~graph:g ~me:i ())

(* what node j advertises about its half of edge (j, i) *)
let advert_of prefs adversaries j i =
  match adversaries.(j) with
  | Some (Adversary.Weight_liar lam) -> (1.0 +. lam) *. bound prefs j
  | _ -> half prefs j i

(* perceived ranking of node i: its neighbour rows by decreasing
   own-half + advertised-half, Lid's tie-break order.  [pw] is aligned
   to [Graph.neighbors g i]; a row whose advert the guard refused holds
   nan and is left out. *)
let ranking_of g pw i =
  let nb = Graph.neighbors g i in
  let rows =
    List.init (Array.length nb) Fun.id
    |> List.filter (fun r -> not (Float.is_nan pw.(r)))
    |> Array.of_list
  in
  Array.sort
    (fun a b ->
      let c = Float.compare pw.(b) pw.(a) in
      if c <> 0 then c
      else begin
        let e = snd nb.(a) and f = snd nb.(b) in
        let ue, ve = Graph.edge_endpoints g e and uf, vf = Graph.edge_endpoints g f in
        if uf <> ue then Int.compare uf ue
        else if vf <> ve then Int.compare vf ve
        else Int.compare f e
      end)
    rows;
  Array.map (fun r -> nb.(r)) rows

(* the bounded-damage certificate of a final LID state *)
let damage_of ?cutoff w ~capacity ~correct ~unterminated ~overclaimed st =
  Byzantine.check ?cutoff
    {
      Byzantine.weights = w;
      capacity;
      correct;
      edges = Lid.locked_edge_ids st;
      consumed = Array.mapi (fun i _ -> List.length (Lid.locks st i)) correct;
      unterminated;
      overclaimed;
    }

(* ------------------------------------------------------------------ *)
(* adversary behaviours (the adversary layer's node programs)          *)
(* ------------------------------------------------------------------ *)

let prop claim = { Guard.epoch = 0; body = Guard.Prop { claim } }
let rej = { Guard.epoch = 0; body = Guard.Rej }
let lid_message (m : Guard.msg) =
  match m.body with Guard.Prop _ -> Lid.Prop | Guard.Rej -> Lid.Rej

(* the constant messages of an unguarded run: nothing below the
   protocol reads a PROP's claim unless the guard is on, so every PROP
   and every REJ is one shared value, and without the transport one
   shared datagram frame (frames are immutable, so any message equal to
   a constant may travel as it) *)
let prop_unclaimed = prop 0.0
let datagram gm = Transport.Data { epoch = 0; seq = 0; payload = gm }
let prop_unclaimed_frame = datagram prop_unclaimed
let rej_frame = datagram rej

(* f's own (truthful) preference order over its neighbours: rows by
   decreasing symmetric weight, ties in row order *)
let own_order prefs g f =
  let nb = Graph.neighbors g f in
  let pw = Array.map (fun (v, _) -> half prefs f v +. half prefs v f) nb in
  let rows = Array.init (Array.length nb) Fun.id in
  Array.stable_sort (fun a b -> Float.compare pw.(b) pw.(a)) rows;
  Array.to_list (Array.map (fun r -> fst nb.(r)) rows)

(* the lowest node other than [f] that is not its neighbour: whom a
   PROP-to-stranger attack writes to *)
let stranger g f =
  let n = Graph.node_count g in
  let rec find i =
    if i >= n then None
    else if i <> f && not (Graph.mem_edge g f i) then Some i
    else find (i + 1)
  in
  find 0

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: tl -> x :: take (k - 1) tl

(* a roughly honest responder: proposes to its top-b, accepts up to
   [limit] partners, declines the rest — every proposal it receives is
   eventually answered.  [claim v] is what it writes into its PROPs. *)
let responder ~claim ~order ~limit =
  let sent = Hashtbl.create 8 in
  let partners = Hashtbl.create 8 in
  let declined = Hashtbl.create 8 in
  let prop_to ~send v =
    if not (Hashtbl.mem sent v) then begin
      Hashtbl.replace sent v ();
      send ~dst:v (prop (claim v))
    end
  in
  let on_init ~send = List.iter (prop_to ~send) (take limit order) in
  let on_receive ~src (m : Guard.msg) ~send =
    match m.body with
    | Guard.Prop _ ->
        if Hashtbl.mem partners src then ()
        else if Hashtbl.mem sent src then Hashtbl.replace partners src ()
        else if Hashtbl.length partners < limit && not (Hashtbl.mem declined src)
        then begin
          Hashtbl.replace partners src ();
          prop_to ~send src
        end
        else if not (Hashtbl.mem declined src) then begin
          Hashtbl.replace declined src ();
          send ~dst:src rej
        end
    | Guard.Rej -> Hashtbl.remove sent src
  in
  { Adversary.on_init; on_receive }

let make_behaviour prefs g adversaries f model =
  let nbrs = Array.map fst (Graph.neighbors g f) in
  let b = Preference.quota prefs f in
  let order = own_order prefs g f in
  match (model : Adversary.model) with
  | Adversary.Weight_liar _ ->
      (* state-machine-clean; the dishonesty is entirely in the claim,
         which must match the bootstrap advert to stay stealthy *)
      responder ~claim:(advert_of prefs adversaries f) ~order ~limit:b
  | Adversary.Equivocator ->
      (* proposes to everyone once; every proposal it ever receives is
         answered by that standing accept — per-link perfectly legal *)
      {
        Adversary.on_init =
          (fun ~send -> Array.iter (fun v -> send ~dst:v (prop (half prefs f v))) nbrs);
        on_receive = (fun ~src:_ _ ~send:_ -> ());
      }
  | Adversary.Flooder k ->
      (* every receipt triggers [k] full PROP sweeps over the
         neighbourhood; a total budget stops flooder pairs from
         amplifying each other forever *)
      let sweeps_left = ref (4 * max 1 k) in
      {
        Adversary.on_init = (fun ~send:_ -> ());
        on_receive =
          (fun ~src:_ _ ~send ->
            let burst = min (max 1 k) !sweeps_left in
            sweeps_left := !sweeps_left - burst;
            for _ = 1 to burst do
              Array.iter (fun v -> send ~dst:v (prop (half prefs f v))) nbrs
            done);
      }
  | Adversary.Replayer ->
      (* honest-looking play plus duplicates of its own past messages,
         every other one with a stale epoch *)
      let inner = responder ~claim:(half prefs f) ~order ~limit:b in
      let log = ref [] in
      let replays = ref 0 in
      let recording send ~dst m =
        log := (dst, m) :: !log;
        send ~dst m
      in
      {
        Adversary.on_init = (fun ~send -> inner.Adversary.on_init ~send:(recording send));
        on_receive =
          (fun ~src m ~send ->
            inner.Adversary.on_receive ~src m ~send:(recording send);
            match !log with
            | [] -> ()
            | l ->
                let dst, (m : Guard.msg) = List.nth l (!replays mod List.length l) in
                incr replays;
                let epoch = if !replays mod 2 = 0 then m.epoch else -1 in
                send ~dst { m with epoch });
      }
  | Adversary.State_violator ->
      (* PROP-to-stranger at startup, REJ right after a lock forms, and
         proposals from others are never answered (liveness violation:
         unguarded peers starve waiting for its reply) *)
      let sent = Hashtbl.create 8 in
      {
        Adversary.on_init =
          (fun ~send ->
            List.iter
              (fun v ->
                Hashtbl.replace sent v ();
                send ~dst:v (prop (half prefs f v)))
              (take (max 1 b) order);
            Option.iter (fun w -> send ~dst:w (prop (bound prefs f))) (stranger g f));
        on_receive =
          (fun ~src (m : Guard.msg) ~send ->
            match m.body with
            | Guard.Prop _ when Hashtbl.mem sent src ->
                (* mutual proposal: the victim just locked us — renege *)
                Hashtbl.remove sent src;
                send ~dst:src rej
            | _ -> ());
      }

(* ------------------------------------------------------------------ *)
(* the layer signature                                                 *)
(* ------------------------------------------------------------------ *)

(* One layer of the stack and its row of the report's counter table.
   [on_send] filters an outbound protocol message, [on_deliver] an
   inbound one: [false] swallows it (any completion side effects — a
   quarantine announcement, say — are the layer's own).  A layer with
   no filter only counts and stays off the per-message chains.  No
   layer rewrites a message, so a pass allocates nothing.  Timers are
   layer-owned {!Simnet.schedule} callbacks.  [mw_counters] is read
   once, after the run. *)
type filter = src:int -> dst:int -> Guard.msg -> bool

type mw = {
  mw_name : string;
  on_send : filter option;
  on_deliver : filter option;
  mw_counters : unit -> (string * int) list;
}

let counting mw_name mw_counters =
  { mw_name; on_send = None; on_deliver = None; mw_counters }

let rec admits chain ~src ~dst m =
  match chain with [] -> true | f :: tl -> f ~src ~dst m && admits tl ~src ~dst m

(* ------------------------------------------------------------------ *)
(* the run loop                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0x57C) ?(delay = Simnet.Uniform (0.5, 1.5)) ?(fifo = true)
    ?(faults = Simnet.no_faults) ?(schedule = Schedule.empty) ?(reliable = false)
    ?(sim_shards = 1) ?(unsafe_lookahead = false) ?transport ?patience ?deadline
    ?max_rounds ?(crashes = []) ?silent ?adversaries ?(guard = false) ?prefs w
    ~capacity =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  (* --- argument validation ------------------------------------------ *)
  (match Schedule.validate ~n schedule with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Stack.run: bad schedule: " ^ msg));
  (* down episodes are crash-then-restart sugar: the node leaves at the
     episode start and rejoins retired at the heal *)
  let crashes =
    crashes
    @ List.map
        (fun (v, crash_at, restart_at) ->
          { victim = v; crash_at; restart_at = Some restart_at })
        (Schedule.down_spans schedule)
  in
  List.iter
    (fun { victim; crash_at; restart_at } ->
      if victim < 0 || victim >= n then
        invalid_arg "Stack.run: crash victim out of range";
      if crash_at < 0.0 then invalid_arg "Stack.run: negative crash time";
      match restart_at with
      | Some t when t <= crash_at -> invalid_arg "Stack.run: restart not after crash"
      | _ -> ())
    crashes;
  (match patience with
  | Some p when p <= 0.0 -> invalid_arg "Stack.run: patience must be positive"
  | _ -> ());
  let budget =
    match (deadline, max_rounds) with
    | Some _, Some _ ->
        invalid_arg
          "Stack.run: deadline and max_rounds are two spellings of one budget \
           — give exactly one"
    | Some d, None ->
        if d <= 0.0 then invalid_arg "Stack.run: deadline must be positive";
        Some d
    | None, Some k ->
        if k <= 0 then invalid_arg "Stack.run: max_rounds must be positive";
        Some (float_of_int k *. round_length delay)
    | None, None -> None
  in
  (match silent with
  | Some s when Array.length s <> n ->
      invalid_arg "Stack.run: silent array arity mismatch"
  | _ -> ());
  (match adversaries with
  | Some a when Array.length a <> n ->
      invalid_arg "Stack.run: adversary array arity mismatch"
  | _ -> ());
  let adv_enabled = Option.is_some adversaries in
  if adv_enabled && prefs = None then
    invalid_arg "Stack.run: adversaries need ~prefs (claims are preference halves)";
  if guard && not adv_enabled then
    invalid_arg "Stack.run: guard without an adversary environment is meaningless";
  let adv = Option.value adversaries ~default:(Array.make (max n 1) None) in
  let silent = Option.value silent ~default:(Array.make (max n 1) false) in
  let correct = Array.init n (fun i -> Option.is_none adv.(i) && not silent.(i)) in
  if adv_enabled && not (Array.exists Fun.id correct) then
    invalid_arg "Stack.run: no correct node left";
  (* --- bootstrap: advertise half-weights, vet them, build rankings -- *)
  let guards = if guard then Some (guards_for (Option.get prefs) g) else None in
  let quarantine_events = ref 0 and false_quarantines = ref 0 in
  let bootstrap_rejects = ref [] in
  let ranking =
    match prefs with
    | Some p when adv_enabled ->
        let perceived =
          Array.init n (fun i ->
              if not correct.(i) then [||]
              else
                Array.map
                  (fun (v, _) ->
                    let a = advert_of p adv v i in
                    match guards with
                    | Some gs ->
                        let verdict = Guard.on_advert gs.(i) ~peer:v ~claim:a in
                        if verdict.Guard.quarantine then begin
                          incr quarantine_events;
                          if correct.(v) then incr false_quarantines;
                          bootstrap_rejects := (i, v) :: !bootstrap_rejects
                        end;
                        if verdict.Guard.accept then half p i v +. a else Float.nan
                    | None -> half p i v +. a)
                  (Graph.neighbors g i))
        in
        Some (fun i -> if correct.(i) then ranking_of g perceived.(i) i else [||])
    | _ -> None
  in
  let st, initial = Lid.init ?ranking w ~capacity in
  (* --- channel and schedule ------------------------------------------ *)
  let net =
    Simnet.create ~seed ~fifo ~faults ~shards:sim_shards ~unsafe_lookahead
      ~nodes:(max n 1) ~delay ()
  in
  let channel_layer =
    counting "channel" (fun () ->
        [
          ("sent", Simnet.messages_sent net);
          ("delivered", Simnet.messages_delivered net);
          ("dropped", Simnet.messages_dropped net);
          ("reordered", Simnet.messages_reordered net);
          ("lost-to-crashes", Simnet.messages_lost_to_crashes net);
          ("crashes", Simnet.crash_events net);
        ])
  in
  (* scheduled network weather: outages are evaluated by the simulator
     at delivery time; [weather_touched window] is the "did scheduled
     weather intersect my last waiting window" predicate the detector
     and transport consult before declaring anyone dead.  The window
     matters: a give-up that merely checked {!Schedule.active} at its
     own fire instant would fire falsely just after the heal, while the
     healed link's answer is still in flight — and the window is padded
     by a round trip for the same reason, since a reply prompted at the
     heal instant needs that long to land.  A certain cut consumes no
     randomness, so an empty schedule leaves the run bit-identical to a
     scheduleless one. *)
  let weather_touched window =
    let now = Simnet.now net in
    let slack = 2.0 *. round_length delay in
    Schedule.overlaps schedule ~from_:(now -. window -. slack) ~until:now
  in
  let schedule_layer =
    if Schedule.is_empty schedule then None
    else begin
      Simnet.set_outage net
        (Some (fun ~at ~src ~dst -> Schedule.outage schedule ~at ~src ~dst));
      Some
        (counting "schedule" (fun () ->
             [ ("episodes", List.length schedule); ("cut", Simnet.messages_cut net) ]))
    end
  in
  (* a restarted node lost its volatile protocol state: it rejoins
     "retired" — it declines everything and claims nothing *)
  let retired = Array.make (max n 1) false in
  let live i = Simnet.is_up net i && not retired.(i) in
  (* --- outbound boundary: ARQ transport or raw datagram frames ------ *)
  let tr = ref None in
  let wire_send ~src ~dst (gm : Guard.msg) =
    match !tr with
    | Some t -> Transport.send t ~src ~dst gm
    | None ->
        let frame =
          match gm with
          | { Guard.epoch = 0; body = Guard.Rej } -> rej_frame
          | { Guard.epoch = 0; body = Guard.Prop { claim } } when Float.equal claim 0.0
            ->
              prop_unclaimed_frame
          | _ -> datagram gm
        in
        Simnet.send net ~src ~dst frame
  in
  (* --- the adversary layer: Byzantine node programs ----------------- *)
  let adversary_msgs = ref 0 in
  let byz_send f ~dst m =
    incr adversary_msgs;
    wire_send ~src:f ~dst m
  in
  let behaviours =
    Array.init n (fun f ->
        match adv.(f) with
        | Some m -> make_behaviour (Option.get prefs) g adv f m
        | None -> Adversary.silent)
  in
  let adversary_layer =
    Option.map
      (fun a ->
        counting "adversary" (fun () ->
            let peers =
              Array.fold_left (fun k m -> k + Bool.to_int (Option.is_some m)) 0 a
            in
            [ ("peers", peers); ("messages", !adversary_msgs) ]))
      adversaries
  in
  (* --- the lid layer: protocol sends and the served edge set ------- *)
  let prop_count = ref 0 and rej_count = ref 0 and lid_delivered = ref 0 in
  let wrap src dst = function
    | Lid.Prop -> (
        incr prop_count;
        match (prefs, guards) with
        | Some p, Some _ -> prop (half p src dst)
        | _ -> prop_unclaimed)
    | Lid.Rej ->
        incr rej_count;
        rej
  in
  let send_rej_wire src dst =
    incr rej_count;
    wire_send ~src ~dst rej
  in
  (* the locked edges between live endpoints, read once the run is over *)
  let served =
    lazy
      (List.filter
         (fun eid ->
           let a, b = Graph.edge_endpoints g eid in
           live a && live b)
         (Lid.locked_edge_ids st))
  in
  let lid_layer =
    counting "lid" (fun () ->
        [
          ("prop", !prop_count);
          ("rej", !rej_count);
          ("delivered", !lid_delivered);
          ("locks", List.length (Lazy.force served));
        ])
  in
  (* the filter chains, derived from the enabled layers below *)
  let outbound = ref [] and inbound = ref [] in
  (* --- the deadline layer: the anytime budget gate -------------------
     Until the deadline expires it is a pure pass-through; once [cut]
     flips, every residual send or delivery is swallowed, so even code
     paths that touch the network after the horizon (give-up sweeps,
     late timers) cannot reopen the protocol.  It heads both chains. *)
  let cut = ref None and cut_suppressed = ref 0 in
  let gate ~src:_ ~dst:_ _ =
    match !cut with
    | None -> true
    | Some _ ->
        incr cut_suppressed;
        false
  in
  let deadline_layer =
    Option.map
      (fun _ ->
        {
          mw_name = "deadline";
          on_send = Some gate;
          on_deliver = Some gate;
          mw_counters =
            (fun () ->
              let c = Option.get !cut in
              [
                ("released", c.released);
                ("half-locks", c.half_locks);
                ("abandoned", c.abandoned);
                ("suppressed", !cut_suppressed);
              ]);
        })
      budget
  in
  (* stop at the horizon [d] and freeze.  Unreciprocated locks are
     counted BEFORE the freeze: these are the half-locked edges whose
     completing PROP was still in flight at the horizon, kept one-sided
     in K_i and excluded from the served matching by the mutual-lock
     intersection.  Nothing sends while the cutoff is taken. *)
  let run_until_cutoff d =
    Simnet.run_until net d;
    let half_locks = ref 0 in
    for i = 0 to n - 1 do
      if correct.(i) && live i then
        List.iter
          (fun v -> if not (List.mem i (Lid.locks st v)) then incr half_locks)
          (Lid.locks st i)
    done;
    let c =
      {
        cut_at = d;
        abandoned = Simnet.pending_events net;
        half_locks = !half_locks;
        released =
          List.length (List.filter (fun (i, _) -> correct.(i) && live i) (Lid.freeze st));
      }
    in
    cut := Some c;
    c
  in
  (* --- the detector layer: implicit declines (Lemma 5) -------------- *)
  let patience_armed = ref 0 and patience_fired = ref 0 in
  let suppressed_giveups = ref 0 and transport_giveups = ref 0 in
  let quarantine_giveups = ref 0 and synthetic_rejects = ref 0 in
  let quiet_rounds = ref 0 and stub_rejects = ref 0 in
  let rec emit src dst m =
    let gm = wrap src dst m in
    if admits !outbound ~src ~dst gm then wire_send ~src ~dst gm;
    match (m, patience) with
    | Lid.Prop, Some limit -> arm_patience src dst limit
    | _ -> ()
  and arm_patience i v limit =
    incr patience_armed;
    let rec arm () =
      Simnet.schedule net ~delay:limit (fun () ->
          if live i && Lid.awaiting_reply st ~node:i ~peer:v then begin
            if weather_touched limit then begin
              (* scheduled weather touched the window we just waited
                 out: a give-up now would be a false positive against a
                 peer whose answer was cut — or is still in flight over
                 a link that healed mid-window.  Suppress it and re-arm
                 a full patience for the healed world — the loop is
                 finite because the schedule is. *)
              incr suppressed_giveups;
              arm ()
            end
            else begin
              incr patience_fired;
              synthetic_reject i ~peer:v
            end
          end)
    in
    arm ()
  and synthetic_reject at ~peer =
    incr synthetic_rejects;
    Lid.deliver st ~src:peer ~dst:at Lid.Rej ~emit
  in
  let quarantine at ~peer =
    (* re-announce the decline on the wire, then release any obligation
       towards the offender through the synthetic-REJ escape hatch *)
    send_rej_wire at peer;
    incr quarantine_giveups;
    synthetic_reject at ~peer
  in
  let correct_stragglers () =
    List.filter (fun i -> correct.(i) && live i) (Lid.unterminated_nodes st)
  in
  (* quiet rounds (guarded only): when the network idles with correct
     nodes still stuck, give up exactly the pendings towards
     adversary-controlled or quarantined peers — the eventually-perfect
     failure detector.  Honest-honest pendings are never cut: they
     resolve transitively once the Byzantine leaves are. *)
  let rec run_quiet_rounds gs =
    if correct_stragglers () <> [] && !quiet_rounds < (2 * n) + 8 then begin
      let progress = ref false in
      List.iter
        (fun i ->
          Array.iter
            (fun (v, _) ->
              if
                Lid.awaiting_reply st ~node:i ~peer:v
                && ((not correct.(v)) || Guard.quarantined gs.(i) ~peer:v)
              then begin
                progress := true;
                synthetic_reject i ~peer:v
              end)
            (Graph.neighbors g i))
        (correct_stragglers ());
      if !progress then begin
        incr quiet_rounds;
        Simnet.run net;
        run_quiet_rounds gs
      end
    end
  in
  let detector_layer =
    counting "detector" (fun () ->
        [
          ("patience-armed", !patience_armed);
          ("patience-fired", !patience_fired);
          ("suppressed-give-ups", !suppressed_giveups);
          ("transport-give-ups", !transport_giveups);
          ("quarantine-give-ups", !quarantine_giveups);
          ("synthetic-rej", !synthetic_rejects);
          ("quiet-rounds", !quiet_rounds);
          ("stub-rej", !stub_rejects);
        ])
  in
  (* --- the guard layer: inbound vetting and quarantine -------------- *)
  (* what the correct nodes' guards recorded, folded once after the run
     for both the guard row and the report: offence counts by name
     (alphabetical), adversaries with an offence, adversaries
     quarantined somewhere *)
  let guard_tally =
    lazy
      (match guards with
      | None -> ([], 0, 0)
      | Some gs ->
          let offence_tbl = Hashtbl.create 8 in
          let offenders = Hashtbl.create 8 in
          let quarantined_byz = Hashtbl.create 8 in
          Array.iteri
            (fun i gd ->
              if correct.(i) then begin
                List.iter
                  (fun (k, c) ->
                    Hashtbl.replace offence_tbl k
                      (c + Option.value ~default:0 (Hashtbl.find_opt offence_tbl k)))
                  (Guard.offence_counts gd);
                List.iter
                  (fun (p, _) -> if not correct.(p) then Hashtbl.replace offenders p ())
                  (Guard.offences gd);
                List.iter
                  (fun p -> if not correct.(p) then Hashtbl.replace quarantined_byz p ())
                  (Guard.quarantined_peers gd)
              end)
            gs;
          ( List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) offence_tbl []),
            Hashtbl.length offenders,
            Hashtbl.length quarantined_byz ))
  in
  let guard_layer =
    Option.map
      (fun gs ->
        let inspected = ref 0 in
        {
          mw_name = "guard";
          on_send = None;
          on_deliver =
            Some
              (fun ~src ~dst m ->
                incr inspected;
                let verdict = Guard.inspect gs.(dst) ~peer:src m in
                if verdict.Guard.accept then true
                else begin
                  (* [quarantine] is true exactly when this message pushed
                     the peer over the threshold — complete the quarantine
                     once, then swallow its traffic silently forever *)
                  if verdict.Guard.quarantine then begin
                    incr quarantine_events;
                    if correct.(src) then incr false_quarantines;
                    if not retired.(dst) then quarantine dst ~peer:src
                  end;
                  false
                end);
          mw_counters =
            (fun () ->
              let offence_counts, _, _ = Lazy.force guard_tally in
              [
                ("inspected", !inspected);
                ("quarantines", !quarantine_events);
                ("false-quarantines", !false_quarantines);
              ]
              @ offence_counts);
        })
      guards
  in
  (* --- the dedup layer ---------------------------------------------- *)
  (* protocol-level duplicate suppression: each directed link of a
     correct run carries at most one PROP and one REJ ever, and
     Lid.deliver is idempotent to repeats — suppression is
     outcome-neutral, purely an accounting layer.  It sits BELOW the
     guard on the inbound path: the guard must see raw per-link
     traffic, because a duplicate is itself an offence to score
     (dedup-above-guard would blind the quarantine scoring).  The seen
     set is Lid's per-link delivery marks; only traffic from outside the
     receiver's candidate universe (an adversary writing to a stranger,
     a peer quarantined at bootstrap) needs the fallback table. *)
  let dedup_layer =
    let stray = Hashtbl.create 8 in
    let dedup_prop = ref 0 and dedup_rej = ref 0 in
    {
      mw_name = "dedup";
      on_send = None;
      on_deliver =
        Some
          (fun ~src ~dst (m : Guard.msg) ->
            let lm = lid_message m in
            let repeat =
              match Lid.mark_delivery st ~src ~dst lm with
              | `First -> false
              | `Repeat -> true
              | `Outside ->
                  (* the directed link and the message kind, packed *)
                  let kind = match lm with Lid.Prop -> 0 | Lid.Rej -> 1 in
                  let key = (2 * ((src * n) + dst)) + kind in
                  Hashtbl.mem stray key || (Hashtbl.replace stray key (); false)
            in
            if repeat then
              incr (match lm with Lid.Prop -> dedup_prop | Lid.Rej -> dedup_rej);
            not repeat);
      mw_counters =
        (fun () ->
          [ ("suppressed-prop", !dedup_prop); ("suppressed-rej", !dedup_rej) ]);
    }
  in
  (* --- inbound dispatch --------------------------------------------- *)
  let deliver_payload ~src ~dst (gm : Guard.msg) =
    if not correct.(dst) then
      behaviours.(dst).Adversary.on_receive ~src gm ~send:(byz_send dst)
    else if admits !inbound ~src ~dst gm then begin
      if retired.(dst) then begin
        (* amnesiac membership stub: the pre-crash state is gone,
           decline everything *)
        match gm.Guard.body with
        | Guard.Prop _ ->
            incr stub_rejects;
            send_rej_wire dst src
        | Guard.Rej -> ()
      end
      else begin
        incr lid_delivered;
        Lid.deliver st ~src ~dst (lid_message gm) ~emit
      end
    end
  in
  (* --- the transport layer: ARQ under the protocol, or none -------- *)
  let transport_layer =
    if not reliable then begin
      Simnet.set_handler net (fun ~src ~dst frame ->
          match frame with
          | Transport.Data { payload; _ } -> deliver_payload ~src ~dst payload
          | Transport.Ack _ -> ());
      None
    end
    else begin
      (* when retries exhaust inside (or just after) scheduled weather
         the transport suspects the silent link instead of declaring it
         dead (see Transport.create).  The window is the whole retry
         ladder: a fresh ladder that started mid-episode exhausts only
         after the heal, so testing "active now" at exhaustion time
         would let it give up on a link whose answer is in flight.
         Without a schedule the predicate is constantly false. *)
      let tc = Option.value transport ~default:Transport.default_config in
      let ladder =
        let rec sum k rto acc =
          if k > tc.Transport.max_retries then acc
          else
            let rto = Float.min tc.Transport.rto_max rto in
            sum (k + 1) (rto *. tc.Transport.rto_backoff) (acc +. rto)
        in
        sum 0 tc.Transport.rto_initial 0.0 *. (1.0 +. tc.Transport.rto_jitter)
      in
      let t =
        Transport.create ?config:transport
          ~hold:(fun ~node:_ ~peer:_ -> weather_touched ladder)
          net ~on_deliver:deliver_payload
          ~on_peer_dead:(fun ~node ~peer ->
            (* retries exhausted: the peer implicitly declined *)
            if live node && correct.(node) then begin
              incr transport_giveups;
              synthetic_reject node ~peer
            end)
      in
      tr := Some t;
      Some
        (counting "transport" (fun () ->
             [
               ("data", Transport.data_sent t);
               ("retransmissions", Transport.retransmissions t);
               ("acks", Transport.acks_sent t);
               ("dup-suppressed", Transport.duplicates_suppressed t);
               ("frames", Transport.frames_sent t);
               ("dead-links", Transport.peers_declared_dead t);
               ("suspected", Transport.links_suspected t);
               ("resumed", Transport.links_resumed t);
               ("held-give-ups", Transport.give_ups_held t);
             ]))
    end
  in
  (* --- membership: crash plans schedule a crash and, optionally, a
     restart that rejoins retired ------------------------------------ *)
  List.iter
    (fun { victim = v; crash_at; restart_at } ->
      Simnet.schedule net ~delay:crash_at (fun () -> Simnet.crash net v);
      Option.iter
        (fun t ->
          Simnet.schedule net ~delay:t (fun () ->
              if not (Simnet.is_up net v) then begin
                Simnet.restart net v;
                Option.iter (fun t -> Transport.restart_node t v) !tr;
                retired.(v) <- true;
                (* announce the amnesia: an explicit decline to every
                   neighbour releases anyone still waiting on us *)
                Array.iter (fun (u, _) -> send_rej_wire v u) (Graph.neighbors g v)
              end))
        restart_at)
    crashes;
  (* --- the stack: the enabled layers, top first.  The filter chains
     and the counter table are both read off this one list. --------- *)
  let layers =
    List.filter_map Fun.id
      [
        Some lid_layer;
        deadline_layer;
        Some detector_layer;
        adversary_layer;
        guard_layer;
        Some dedup_layer;
        transport_layer;
        Some channel_layer;
        schedule_layer;
      ]
  in
  outbound := List.filter_map (fun l -> l.on_send) layers;
  inbound := List.filter_map (fun l -> l.on_deliver) layers;
  (* --- go: adversaries open their mouths first, then the honest burst,
     then the re-announced bootstrap declines ------------------------- *)
  Array.iteri
    (fun f c -> if not c then behaviours.(f).Adversary.on_init ~send:(byz_send f))
    correct;
  List.iter (fun (src, dst, m) -> if correct.(src) then emit src dst m) initial;
  List.iter (fun (i, p) -> send_rej_wire i p) !bootstrap_rejects;
  let cutoff =
    match budget with
    | None ->
        Simnet.run net;
        None
    | Some d -> Some (run_until_cutoff d)
  in
  Option.iter run_quiet_rounds guards;
  (* --- terminal accounting ------------------------------------------ *)
  let matching = Bmatching.of_edge_ids g ~capacity (Lazy.force served) in
  let unterminated = correct_stragglers () in
  let quiescence =
    List.filter
      (fun v ->
        match v.Violation.subject with
        | Violation.Node i -> correct.(i) && live i
        | _ -> true)
      (Lid.quiescence_violations st)
  in
  let offence_counts, byz_offenders, byz_quarantined = Lazy.force guard_tally in
  let wasted_slots, damage =
    if not adv_enabled then (0, [])
    else begin
      let p = Option.get prefs in
      (* a correct node's lock on an adversary is a wasted slot; the
         overclaim-lock audit also flags it as avoidable damage when the
         peer's bootstrap advert provably exceeded its public 1/b bound
         — the guard quarantines such peers before a single proposal,
         so only unguarded runs can exhibit it *)
      let wasted = ref 0 and overclaimed = ref [] in
      for i = n - 1 downto 0 do
        if correct.(i) then
          List.iter
            (fun v ->
              if not correct.(v) then begin
                incr wasted;
                if advert_of p adv v i > bound p v +. Guard.default_config.Guard.tolerance
                then overclaimed := (i, v) :: !overclaimed
              end)
            (Lid.locks st i)
      done;
      ( !wasted,
        damage_of ~cutoff:(Option.is_some cutoff) w ~capacity ~correct ~unterminated
          ~overclaimed:!overclaimed st )
    end
  in
  {
    matching;
    correct;
    participating = Array.init n (fun i -> correct.(i) && live i);
    prop_count = !prop_count;
    rej_count = !rej_count;
    delivered = Simnet.messages_delivered net;
    dropped = Simnet.messages_dropped net;
    synthetic_rejects = !synthetic_rejects;
    quarantine_events = !quarantine_events;
    byz_offenders;
    byz_quarantined;
    offence_counts;
    wasted_slots;
    completion_time = Simnet.now net;
    all_terminated = unterminated = [];
    unterminated;
    quiescence;
    damage;
    cutoff;
    layers =
      List.map (fun l -> { layer = l.mw_name; counters = l.mw_counters () }) layers;
  }

(* ------------------------------------------------------------------ *)
(* exhaustive exploration (the inbound composition, pure)              *)
(* ------------------------------------------------------------------ *)

type explore_state = { lid : Lid.state; eguards : Guard.t array option }

(* the guarded (or bare) inbound composition as a pure Explore.protocol,
   so the explorer model-checks the production layer stack: honest
   bootstrap adverts, perceived rankings, Guard.inspect above the
   unchanged Lid.deliver, quarantine re-announcement and the quiet-round
   give-up hook.  Deliveries to non-[correct] nodes are no-ops: the
   explorer's adversary injects their traffic instead. *)
let explore_protocol ~guard ~correct prefs w ~capacity =
  let g = Preference.graph prefs in
  (* adverts are honest in the exhaustive model: adversarial over-bound
     claims enter through the explorer's injection repertoire instead,
     so every attack is interleaved with deliveries rather than fixed
     at t = 0 *)
  let ranking i =
    if correct i then begin
      let pw =
        Array.map (fun (v, _) -> half prefs i v +. half prefs v i) (Graph.neighbors g i)
      in
      ranking_of g pw i
    end
    else [||]
  in
  let wire src dst m =
    let body =
      match m with
      | Lid.Prop -> Guard.Prop { claim = half prefs src dst }
      | Lid.Rej -> Guard.Rej
    in
    { Explore.src; dst; payload = { Guard.epoch = 0; body } }
  in
  let step lid ~src ~dst lm =
    let out = ref [] in
    Lid.deliver lid ~src ~dst lm ~emit:(fun src dst m -> out := wire src dst m :: !out);
    List.rev !out
  in
  let mk_guards () = if guard then Some (guards_for prefs g) else None in
  let deliver st ~src ~dst (m : Guard.msg) =
    if not (correct dst) then []
    else begin
      match st.eguards with
      | None -> step st.lid ~src ~dst (lid_message m)
      | Some gs ->
          let verdict = Guard.inspect gs.(dst) ~peer:src m in
          if verdict.Guard.accept then step st.lid ~src ~dst (lid_message m)
          else if verdict.Guard.quarantine then
            { Explore.src = dst; dst = src; payload = rej }
            :: step st.lid ~src ~dst Lid.Rej
          else []
    end
  in
  let tags = Hashtbl.create 16 in
  let msg_tag (m : Guard.msg) =
    match Hashtbl.find_opt tags m with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tags in
        Hashtbl.add tags m t;
        t
  in
  let stragglers st =
    List.filter (fun i -> correct i) (Lid.unterminated_nodes st.lid)
  in
  {
    Explore.init =
      (fun () ->
        let lid, sends = Lid.init ~ranking w ~capacity in
        ( { lid; eguards = mk_guards () },
          List.map (fun (src, dst, m) -> wire src dst m) sends ));
    deliver;
    copy =
      (fun st ->
        {
          lid = Lid.copy_state st.lid;
          eguards = Option.map (Array.map Guard.copy) st.eguards;
        });
    fingerprint =
      (fun st ->
        let b = Buffer.create 256 in
        Buffer.add_string b (Lid.fingerprint st.lid);
        (match st.eguards with
        | None -> ()
        | Some gs ->
            Array.iter
              (fun gd ->
                Buffer.add_char b '|';
                Buffer.add_string b (Guard.fingerprint gd))
              gs);
        Buffer.contents b);
    quiesced = (fun st -> stragglers st = []);
    stragglers;
    observe = (fun st -> Lid.locked_edge_ids st.lid);
    msg_tag;
    give_up =
      (if guard then
         Some
           (fun st ~self ~peer ->
             if correct self then step st.lid ~src:peer ~dst:self Lid.Rej
             else [])
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Byzantine accounting and exhaustive verification                    *)
(* ------------------------------------------------------------------ *)

(* formerly Lid_byzantine: the satisfaction accounting the experiments
   report and the Explore repertoire, now on the stack itself since the
   wrapper module was only Stack.run with one layer selection *)

let satisfaction_of_correct prefs (r : report) =
  let conns = Bmatching.connection_lists r.matching in
  let total = ref 0.0 in
  Array.iteri
    (fun i c -> if c then total := !total +. Preference.satisfaction prefs i conns.(i))
    r.correct;
  !total

let lic_reference prefs ~keep ~quota =
  let g = Preference.graph prefs in
  let nodes = Array.of_list (List.filter keep (List.init (Graph.node_count g) Fun.id)) in
  let sub, old_of_new = Graph.induced_subgraph g nodes in
  let arr = Array.make (Graph.edge_count sub) 0.0 in
  Graph.iter_edges sub (fun eid u v ->
      let ou = old_of_new.(u) and ov = old_of_new.(v) in
      arr.(eid) <- half prefs ou ov +. half prefs ov ou);
  (old_of_new, Lic.run (Weights.of_array sub arr) ~capacity:(Array.map quota old_of_new))

let reference_satisfaction prefs ~correct =
  let old_of_new, m =
    lic_reference prefs ~keep:(fun i -> correct.(i)) ~quota:(Preference.quota prefs)
  in
  let conns = Bmatching.connection_lists m in
  let total = ref 0.0 in
  Array.iteri
    (fun ni oi ->
      total :=
        !total
        +. Preference.satisfaction prefs oi
             (List.map (fun nv -> old_of_new.(nv)) conns.(ni)))
    old_of_new;
  !total

let verify_exhaustively ?(guard = true) ?(budget = 2) ?max_configs ~byz prefs =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  if byz < 0 || byz >= n then invalid_arg "Stack.verify_exhaustively: byz";
  let capacity = Array.init n (Preference.quota prefs) in
  let w = Weights.of_preference prefs in
  let correct i = i <> byz in
  let protocol = explore_protocol ~guard ~correct prefs w ~capacity in
  (* repertoire: per neighbour an honest-looking PROP, an over-bound
     PROP, a REJ and a stale-epoch PROP; plus one PROP to a stranger *)
  let injections =
    let lie =
      let b = bound prefs byz in
      if b > 0.0 then 1.5 *. b else 0.5
    in
    let towards = Array.to_list (Array.map fst (Graph.neighbors g byz)) in
    let per_neighbour v =
      [
        { Explore.src = byz; dst = v; payload = prop (half prefs byz v) };
        { Explore.src = byz; dst = v; payload = prop lie };
        { Explore.src = byz; dst = v; payload = rej };
        {
          Explore.src = byz;
          dst = v;
          payload = { Guard.epoch = -1; body = Guard.Prop { claim = half prefs byz v } };
        };
      ]
    in
    List.concat_map per_neighbour towards
    @ Option.fold (stranger g byz) ~none:[] ~some:(fun i ->
          [ { Explore.src = byz; dst = i; payload = prop (bound prefs byz) } ])
  in
  let on_terminal est =
    damage_of w ~capacity ~correct:(Array.init n correct)
      ~unterminated:(List.filter correct (Lid.unterminated_nodes est.lid))
      ~overclaimed:[] est.lid
  in
  Explore.explore ?max_configs
    ~adversary:{ Explore.byz; injections; budget }
    ~on_terminal protocol
