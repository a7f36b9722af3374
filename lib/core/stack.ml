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

let cell layers ~layer name =
  match List.find_opt (fun l -> l.layer = layer) layers with
  | None -> 0
  | Some l -> Option.value ~default:0 (List.assoc_opt name l.counters)

let counter r = cell r.layers

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

(* ------------------------------------------------------------------ *)
(* eq. 9 halves                                                        *)
(* ------------------------------------------------------------------ *)

(* Claims and rankings read ΔS̄_i(j) from [Weights.half], the half
   Weights.of_preference combines (and IEEE addition is commutative), so
   an all-honest perceived ranking is bit-identical to Lid's default
   weight list.  The public structural bound: ΔS̄_j(·) = (1 − R/L)/b_j
   ≤ 1/b_j, and b_j is public — any claim above this is a provable lie. *)
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
  | _ -> Weights.half prefs j i

(* the bootstrap weights: every correct node ranks its neighbour row by
   own half + advertised half ([advert v i]: what v advertises to i),
   one entry per adjacency slot, for {!Lid.init}'s [perceived].  [accept
   i v claim] vets each advert, in node order, then neighbour order; a
   refused advert, and every slot of a node that is not correct, is NaN
   and leaves that neighbour out. *)
let perceived prefs g ~correct ~advert ~accept =
  let pw = Array.make (Array.length g.Graph.nbr) Float.nan in
  for i = 0 to Graph.node_count g - 1 do
    if correct i then
      for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
        let v = g.Graph.nbr.(s) in
        let a = advert v i in
        if accept i v a then pw.(s) <- Weights.half prefs i v +. a
      done
  done;
  pw

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
  let nb = Graph.neighbor_nodes g f in
  let pw = Array.map (fun v -> Weights.half prefs f v +. Weights.half prefs v f) nb in
  let rows = Array.init (Array.length nb) Fun.id in
  Array.stable_sort (fun a b -> Float.compare pw.(b) pw.(a)) rows;
  Array.to_list (Array.map (fun r -> nb.(r)) rows)

(* the lowest node other than [f] that is not its neighbour: whom a
   PROP-to-stranger attack writes to *)
let stranger g f =
  Seq.init (Graph.node_count g) Fun.id
  |> Seq.find (fun i -> i <> f && not (Graph.mem_edge g f i))

let take k l = List.filteri (fun i _ -> i < k) l

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
  let nbrs = Graph.neighbor_nodes g f in
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
          (fun ~send ->
            Array.iter (fun v -> send ~dst:v (prop (Weights.half prefs f v))) nbrs);
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
              Array.iter (fun v -> send ~dst:v (prop (Weights.half prefs f v))) nbrs
            done);
      }
  | Adversary.Replayer ->
      (* honest-looking play plus duplicates of its own past messages,
         every other one with a stale epoch.  A PROP from a stranger (a
         violator's) is answered with the public bound: a non-edge has
         no eq. 9 half *)
      let claim v =
        if Graph.mem_edge g f v then Weights.half prefs f v else bound prefs f
      in
      let inner = responder ~claim ~order ~limit:b in
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
                send ~dst:v (prop (Weights.half prefs f v)))
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
(* the layer signature and the run context                             *)
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

(* What the layers share and nothing else: the simulator, the state
   machine, who is correct, who came back retired, and the weather.
   Every counter belongs to the builder that bumps it; a layer reaches
   another only through the up-calls it is handed — [wire] (the
   outbound boundary), [emit] (the protocol's send sink: outbound
   chain, wire, patience), [send_rej] (a counted REJ straight onto the
   wire: the re-announcements no gate may swallow) and the detector's
   give-ups. *)
type ctx = {
  net : Guard.msg Transport.frame Simnet.t;
  g : Graph.t;
  st : Lid.state;
  correct : bool array;
  retired : bool array;  (** restarted nodes: amnesiac, declining *)
  delay : Simnet.delay_model;
  schedule : Schedule.t;
}

let live c i = Simnet.is_up c.net i && not c.retired.(i)

let stragglers c =
  List.filter (fun i -> c.correct.(i) && live c i) (Lid.unterminated_nodes c.st)

(* scheduled network weather: outages are evaluated by the simulator
   at delivery time; [weather_touched c window] is the "did scheduled
   weather intersect my last waiting window" predicate the detector
   and transport consult before declaring anyone dead.  The window
   matters: a give-up that merely checked whether an episode covers
   its own fire instant would fire falsely just after the heal, while the
   healed link's answer is still in flight — and the window is padded
   by a round trip for the same reason, since a reply prompted at the
   heal instant needs that long to land. *)
let weather_touched c window =
  let now = Simnet.now c.net in
  let slack = 2.0 *. round_length c.delay in
  Schedule.overlaps c.schedule ~from_:(now -. window -. slack) ~until:now

(* ------------------------------------------------------------------ *)
(* the layers, one builder each, in table order                        *)
(* ------------------------------------------------------------------ *)

(* --- lid: protocol sends and deliveries, and the served edge set -----
   Its up-calls count every protocol message: [out] converts a send of
   the machine for the wire, [send_rej] is the counted REJ, [feed]
   hands a delivery to the machine. *)
type lid_io = {
  out : int -> int -> Lid.message -> Guard.msg;
  send_rej : int -> int -> unit;
  feed : src:int -> dst:int -> Lid.message -> unit;
}

let lid_layer c ~claim ~wire ~emit ~served =
  let props = ref 0 and rejs = ref 0 and delivered = ref 0 in
  ( counting "lid" (fun () ->
        [ ("prop", !props); ("rej", !rejs); ("delivered", !delivered);
          ("locks", List.length (Lazy.force served)) ]),
    {
      out =
        (fun src dst m ->
          match m with
          | Lid.Prop -> incr props; claim src dst
          | Lid.Rej -> incr rejs; rej);
      send_rej = (fun src dst -> incr rejs; wire ~src ~dst rej);
      feed = (fun ~src ~dst m -> incr delivered; Lid.deliver c.st ~src ~dst m ~emit);
    } )

(* --- deadline: the anytime budget gate -------------------------------
   Until the deadline expires it is a pure pass-through; once the cut is
   taken every residual send or delivery is swallowed, so even code
   paths that touch the network after the horizon (give-up sweeps, late
   timers) cannot reopen the protocol.  It heads both chains.  [stop]
   runs to the horizon [d] and freezes.  Unreciprocated locks are
   counted BEFORE the freeze: these are the half-locked edges whose
   completing PROP was still in flight at the horizon, kept one-sided
   in K_i and excluded from the served matching by the mutual-lock
   intersection.  Nothing sends while the cutoff is taken. *)
let deadline_layer c d =
  let cut = ref None and suppressed = ref 0 in
  let gate ~src:_ ~dst:_ _ =
    match !cut with None -> true | Some _ -> incr suppressed; false
  in
  let stop () =
    Simnet.run_until c.net d;
    let alive i = c.correct.(i) && live c i in
    let half_locks = ref 0 in
    Array.iteri
      (fun i _ ->
        if alive i then
          List.iter
            (fun v -> if not (List.mem i (Lid.locks c.st v)) then incr half_locks)
            (Lid.locks c.st i))
      c.correct;
    let abandoned = Simnet.pending_events c.net and half_locks = !half_locks in
    let released = List.length (List.filter (fun (i, _) -> alive i) (Lid.freeze c.st)) in
    let k = { cut_at = d; abandoned; half_locks; released } in
    cut := Some k;
    k
  in
  ( {
      mw_name = "deadline";
      on_send = Some gate;
      on_deliver = Some gate;
      mw_counters =
        (fun () ->
          let k = Option.get !cut in
          [ ("released", k.released); ("half-locks", k.half_locks);
            ("abandoned", k.abandoned); ("suppressed", !suppressed) ]);
    },
    stop )

(* --- detector: implicit declines (Lemma 5) ---------------------------
   The one place a give-up is decided and counted.  Each layer that
   observes silence gets its entry: [arm] for every PROP the protocol
   emits (patience), [gave_up] for the transport's exhausted retries,
   [quarantine] for the guard's offenders, [stub] for each PROP the
   amnesiac membership stub declines, and [quiet] for the guarded quiet
   rounds.  A give-up feeds the machine a synthetic REJ. *)
type detector = {
  arm : int -> int -> unit;
  gave_up : node:int -> peer:int -> unit;
  quarantine : int -> peer:int -> unit;
  stub : unit -> unit;
  quiet : Guard.t array -> unit;
}

let detector_layer c ~patience ~emit =
  let armed = ref 0 and fired = ref 0 and held = ref 0 in
  let by_transport = ref 0 and by_quarantine = ref 0 and synthetic = ref 0 in
  let quiet_rounds = ref 0 and stubs = ref 0 in
  let decline at ~peer =
    incr synthetic;
    Lid.deliver c.st ~src:peer ~dst:at Lid.Rej ~emit
  in
  let arm =
    match patience with
    | None -> fun _ _ -> ()
    | Some limit ->
        fun i v ->
          incr armed;
          let rec wait () =
            Simnet.schedule c.net ~delay:limit (fun () ->
                if live c i && Lid.awaiting_reply c.st ~node:i ~peer:v then begin
                  (* scheduled weather touched the window we just waited
                     out: a give-up now would be a false positive against
                     a peer whose answer was cut — or is still in flight
                     over a link that healed mid-window.  Suppress it and
                     re-arm a full patience for the healed world — the
                     loop is finite because the schedule is. *)
                  if weather_touched c limit then (incr held; wait ())
                  else (incr fired; decline i ~peer:v)
                end)
          in
          wait ()
  in
  (* quiet rounds (guarded only): when the network idles with correct
     nodes still stuck, give up exactly the pendings towards
     adversary-controlled or quarantined peers — the eventually-perfect
     failure detector.  Honest-honest pendings are never cut: they
     resolve transitively once the Byzantine leaves are. *)
  let rec quiet gs =
    if stragglers c <> [] && !quiet_rounds < (2 * Graph.node_count c.g) + 8 then begin
      let progress = ref false in
      List.iter
        (fun i ->
          Graph.iter_neighbors c.g i (fun v _ ->
              if
                Lid.awaiting_reply c.st ~node:i ~peer:v
                && ((not c.correct.(v)) || Guard.quarantined gs.(i) ~peer:v)
              then begin
                progress := true;
                decline i ~peer:v
              end))
        (stragglers c);
      if !progress then begin
        incr quiet_rounds;
        Simnet.run c.net;
        quiet gs
      end
    end
  in
  ( counting "detector" (fun () ->
        [ ("patience-armed", !armed); ("patience-fired", !fired);
          ("suppressed-give-ups", !held); ("transport-give-ups", !by_transport);
          ("quarantine-give-ups", !by_quarantine); ("synthetic-rej", !synthetic);
          ("quiet-rounds", !quiet_rounds); ("stub-rej", !stubs) ]),
    {
      arm;
      gave_up =
        (fun ~node ~peer ->
          (* retries exhausted: the peer implicitly declined *)
          if live c node && c.correct.(node) then begin
            incr by_transport;
            decline node ~peer
          end);
      quarantine = (fun at ~peer -> incr by_quarantine; decline at ~peer);
      stub = (fun () -> incr stubs);
      quiet;
    } )

(* --- adversary: Byzantine node programs ------------------------------
   [send] is a behaviour's mouth onto the wire, [programs] the node
   programs (silent for every correct or fail-silent node).  The row
   appears only when adversaries are in play. *)
let adversary_layer c ~prefs ~adversaries ~wire =
  let msgs = ref 0 in
  let send f ~dst m = incr msgs; wire ~src:f ~dst m in
  let programs =
    Array.init (Array.length c.correct) (fun f ->
        match adversaries with
        | Some a when Option.is_some a.(f) ->
            make_behaviour (Option.get prefs) c.g a f (Option.get a.(f))
        | _ -> Adversary.silent)
  in
  ( Option.map
      (fun a ->
        counting "adversary" (fun () ->
            let peers =
              Array.fold_left (fun k m -> k + Bool.to_int (Option.is_some m)) 0 a
            in
            [ ("peers", peers); ("messages", !msgs) ]))
      adversaries,
    send,
    programs )

(* --- guard: inbound vetting and quarantine ---------------------------
   [screen] is the guard's verdict on one inbound message, shared with
   the exhaustive explorer: an accepted message passes; the one that
   pushes its sender over the threshold completes the quarantine once
   through [quarantine], and the sender's traffic is swallowed from then
   on. *)
let screen gs ~quarantine ~src ~dst m =
  let verdict = Guard.inspect gs.(dst) ~peer:src m in
  if verdict.Guard.quarantine && not verdict.Guard.accept then quarantine dst ~peer:src;
  verdict.Guard.accept

(* what the correct nodes' guards recorded, folded after the run for
   both the guard row and the report: offence counts by name
   (alphabetical), adversaries with an offence, adversaries quarantined
   somewhere *)
let guard_tally correct gs =
  let mine = List.filteri (fun i _ -> correct.(i)) (Array.to_list gs) in
  let byz peers =
    List.concat_map (fun gd -> List.filter (fun p -> not correct.(p)) (peers gd)) mine
    |> List.sort_uniq compare |> List.length
  in
  let counts = List.concat_map Guard.offence_counts mine in
  ( List.map
      (fun k ->
        (k, List.fold_left (fun a (k', n) -> if k' = k then a + n else a) 0 counts))
      (List.sort_uniq compare (List.map fst counts)),
    byz (fun gd -> List.map fst (Guard.offences gd)),
    byz Guard.quarantined_peers )

(* [bootstrap] lists the (node, peer) quarantines the advert vetting
   already took; the row counts them with the inbound ones *)
let guard_layer c gs ~bootstrap ~send_rej ~give_up =
  let inspected = ref 0 and quarantines = ref (List.length bootstrap) in
  let false_quarantines =
    ref (List.length (List.filter (fun (_, v) -> c.correct.(v)) bootstrap))
  in
  let quarantine dst ~peer =
    incr quarantines;
    if c.correct.(peer) then incr false_quarantines;
    if not c.retired.(dst) then begin
      (* re-announce the decline on the wire, then release any
         obligation towards the offender *)
      send_rej dst peer;
      give_up dst ~peer
    end
  in
  {
    mw_name = "guard";
    on_send = None;
    on_deliver =
      Some
        (fun ~src ~dst m ->
          incr inspected;
          screen gs ~quarantine ~src ~dst m);
    mw_counters =
      (fun () ->
        let offence_counts, _, _ = guard_tally c.correct gs in
        ("inspected", !inspected) :: ("quarantines", !quarantines)
        :: ("false-quarantines", !false_quarantines) :: offence_counts);
  }

(* --- dedup -----------------------------------------------------------
   protocol-level duplicate suppression: each directed link of a
   correct run carries at most one PROP and one REJ ever, and
   Lid.deliver is idempotent to repeats — suppression is
   outcome-neutral, purely an accounting layer.  It sits BELOW the
   guard on the inbound path: the guard must see raw per-link traffic,
   because a duplicate is itself an offence to score (dedup-above-guard
   would blind the quarantine scoring).  The seen set is Lid's per-link
   delivery marks; only traffic from outside the receiver's candidate
   universe (an adversary writing to a stranger, a peer quarantined at
   bootstrap) needs the fallback table. *)
let dedup_layer c =
  let n = Graph.node_count c.g in
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
            match Lid.mark_delivery c.st ~src ~dst lm with
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
      (fun () -> [ ("suppressed-prop", !dedup_prop); ("suppressed-rej", !dedup_rej) ]);
  }

(* --- transport: ARQ under the protocol, or none ----------------------
   The outbound boundary, chosen once per run: [wire] is the ARQ's send
   or a datagram frame straight onto the channel (unguarded messages
   travel as the shared constant frames), [restart] clears a restarted
   node's link state.  Both boundaries hand every arriving payload to
   [dispatch].  When retries exhaust inside (or just after) scheduled
   weather the transport suspects the silent link instead of declaring
   it dead (see Transport.create).  The window is the whole retry
   ladder: a fresh ladder that started mid-episode exhausts only after
   the heal, so testing "active now" at exhaustion time would let it
   give up on a link whose answer is in flight.  Without a schedule the
   predicate is constantly false. *)
let transport_layer c ~reliable ~config ~dispatch ~gave_up =
  if not reliable then begin
    Simnet.set_handler c.net (fun ~src ~dst frame ->
        match frame with
        | Transport.Data { payload; _ } -> dispatch ~src ~dst payload
        | Transport.Ack _ -> ());
    let wire ~src ~dst (gm : Guard.msg) =
      Simnet.send c.net ~src ~dst
        (match gm with
        | { Guard.epoch = 0; body = Guard.Rej } -> rej_frame
        | { Guard.epoch = 0; body = Guard.Prop { claim } } when Float.equal claim 0.0 ->
            prop_unclaimed_frame
        | _ -> datagram gm)
    in
    (None, wire, ignore)
  end
  else begin
    let tc = Option.value config ~default:Transport.default_config in
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
      Transport.create ?config
        ~hold:(fun ~node:_ ~peer:_ -> weather_touched c ladder)
        c.net ~on_deliver:dispatch ~on_peer_dead:gave_up
    in
    ( Some
        (counting "transport" (fun () ->
             [ ("data", Transport.data_sent t);
               ("retransmissions", Transport.retransmissions t);
               ("acks", Transport.acks_sent t);
               ("dup-suppressed", Transport.duplicates_suppressed t);
               ("frames", Transport.frames_sent t);
               ("dead-links", Transport.peers_declared_dead t);
               ("suspected", Transport.links_suspected t);
               ("resumed", Transport.links_resumed t);
               ("held-give-ups", Transport.give_ups_held t) ])),
      Transport.send t,
      Transport.restart_node t )
  end

(* --- channel and schedule: the simulator's own counts ---------------- *)
let channel_layer c =
  counting "channel" (fun () ->
      [ ("sent", Simnet.messages_sent c.net);
        ("delivered", Simnet.messages_delivered c.net);
        ("dropped", Simnet.messages_dropped c.net);
        ("reordered", Simnet.messages_reordered c.net);
        ("lost-to-crashes", Simnet.messages_lost_to_crashes c.net);
        ("crashes", Simnet.crash_events c.net) ])

(* the simulator cuts deliveries the schedule's outages cover.  A
   certain cut consumes no randomness, so an empty schedule leaves the
   run bit-identical to a scheduleless one — and adds no row. *)
let schedule_layer c =
  if Schedule.is_empty c.schedule then None
  else begin
    Simnet.set_outage c.net
      (Some (fun ~at ~src ~dst -> Schedule.outage c.schedule ~at ~src ~dst));
    Some
      (counting "schedule" (fun () ->
           [ ("episodes", List.length c.schedule); ("cut", Simnet.messages_cut c.net) ]))
  end

(* membership: crash plans schedule a crash and, optionally, a restart
   that rejoins retired and announces its amnesia — an explicit decline
   to every neighbour releases anyone still waiting on it *)
let schedule_crashes c crashes ~restart ~send_rej =
  List.iter
    (fun { victim = v; crash_at; restart_at } ->
      Simnet.schedule c.net ~delay:crash_at (fun () -> Simnet.crash c.net v);
      Option.iter
        (fun t ->
          Simnet.schedule c.net ~delay:t (fun () ->
              if not (Simnet.is_up c.net v) then begin
                Simnet.restart c.net v;
                restart v;
                c.retired.(v) <- true;
                Graph.iter_neighbors c.g v (fun u _ -> send_rej v u)
              end))
        restart_at)
    crashes

(* ------------------------------------------------------------------ *)
(* the run loop                                                        *)
(* ------------------------------------------------------------------ *)

(* The stack's one forward reference: the inbound dispatch the
   transport or the Simnet handler calls, and the protocol's send sink
   the machine and the detector call.  Both fold the chains, which are
   read off the layer list, so [run] sets them once that list exists. *)
type entries = {
  dispatch : src:int -> dst:int -> Guard.msg -> unit;
  emit : int -> int -> Lid.message -> unit;
}

let run ?(seed = 0x57C) ?(delay = Simnet.Uniform (0.5, 1.5)) ?(fifo = true)
    ?(faults = Simnet.no_faults) ?(schedule = Schedule.empty) ?(reliable = false)
    ?(sim_shards = 1) ?transport ?patience ?deadline
    ?max_rounds ?(crashes = []) ?silent ?adversaries ?(guard = false) ?prefs w
    ~capacity =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  (* --- argument validation ------------------------------------------ *)
  let fail msg = invalid_arg ("Stack.run: " ^ msg) in
  if sim_shards <> 1 then fail "sim_shards must be 1 (the event store has one shard)";
  let arity name =
    Option.iter (fun a ->
        if Array.length a <> n then fail (name ^ " array arity mismatch"))
  in
  Result.iter_error
    (fun msg -> fail ("bad schedule: " ^ msg))
    (Schedule.validate ~n schedule);
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
      if victim < 0 || victim >= n then fail "crash victim out of range";
      if crash_at < 0.0 then fail "negative crash time";
      if Option.fold ~none:false ~some:(fun t -> t <= crash_at) restart_at then
        fail "restart not after crash")
    crashes;
  let positive x = x > 0.0 && Float.is_finite x (* false on NaN *) in
  if Option.fold ~none:false ~some:(fun p -> not (positive p)) patience then
    fail "patience must be positive";
  let budget =
    match (deadline, max_rounds) with
    | Some _, Some _ ->
        fail
          "deadline and max_rounds are two spellings of one budget — give exactly one"
    | Some d, None ->
        if not (positive d) then fail "deadline must be positive";
        Some d
    | None, Some k ->
        if k <= 0 then fail "max_rounds must be positive";
        Some (float_of_int k *. round_length delay)
    | None, None -> None
  in
  arity "silent" silent;
  arity "adversary" adversaries;
  let adv_enabled = Option.is_some adversaries in
  if adv_enabled && prefs = None then
    fail "adversaries need ~prefs (claims are preference halves)";
  if guard && not adv_enabled then
    fail "guard without an adversary environment is meaningless";
  let adv = Option.value adversaries ~default:(Array.make (max n 1) None) in
  let silent = Option.value silent ~default:(Array.make (max n 1) false) in
  let correct = Array.init n (fun i -> Option.is_none adv.(i) && not silent.(i)) in
  if adv_enabled && not (Array.exists Fun.id correct) then fail "no correct node left";
  (* --- the context and the bootstrap: advertise half-weights, vet
     them, build the perceived weights ------------------------------ *)
  let guards = if guard then Some (guards_for (Option.get prefs) g) else None in
  let bootstrap = ref [] in
  let perceived =
    match prefs with
    | Some p when adv_enabled ->
        let accept =
          match guards with
          | None -> fun _ _ _ -> true
          | Some gs ->
              fun i v claim ->
                let verdict = Guard.on_advert gs.(i) ~peer:v ~claim in
                if verdict.Guard.quarantine then bootstrap := (i, v) :: !bootstrap;
                verdict.Guard.accept
        in
        Some (perceived p g ~correct:(Array.get correct) ~advert:(advert_of p adv) ~accept)
    | _ -> None
  in
  let st = Lid.init ?perceived w ~capacity in
  let net = Simnet.create ~seed ~fifo ~faults ~burst:(Lid.burst st) ~nodes:(max n 1) ~delay () in
  let retired = Array.make (max n 1) false in
  let c = { net; g; st; correct; retired; delay; schedule } in
  let up = ref { dispatch = (fun ~src:_ ~dst:_ _ -> ()); emit = (fun _ _ _ -> ()) } in
  let emit src dst m = (!up).emit src dst m in
  (* the locked edges between live endpoints, read once the run is over *)
  let served =
    lazy
      (List.filter
         (fun e -> live c (Graph.edge_u g e) && live c (Graph.edge_v g e))
         (Lid.locked_edge_ids st))
  in
  let claim =
    match (prefs, guards) with
    | Some p, Some _ -> fun src dst -> prop (Weights.half p src dst)
    | _ -> fun _ _ -> prop_unclaimed
  in
  (* --- the stack: each layer from its builder, listed top first.  The
     chains and the counter table are all read off this one list. ---- *)
  let detector, det = detector_layer c ~patience ~emit in
  let transport, wire, restart =
    transport_layer c ~reliable ~config:transport
      ~dispatch:(fun ~src ~dst m -> (!up).dispatch ~src ~dst m)
      ~gave_up:det.gave_up
  in
  let lid, io = lid_layer c ~claim ~wire ~emit ~served in
  let adversary, byz_send, programs = adversary_layer c ~prefs ~adversaries ~wire in
  let deadline = Option.map (deadline_layer c) budget in
  let layers =
    List.filter_map Fun.id
      [
        Some lid;
        Option.map fst deadline;
        Some detector;
        adversary;
        Option.map
          (fun gs ->
            guard_layer c gs ~bootstrap:!bootstrap ~send_rej:io.send_rej
              ~give_up:det.quarantine)
          guards;
        Some (dedup_layer c);
        transport;
        Some (channel_layer c);
        schedule_layer c;
      ]
  in
  let outbound = List.filter_map (fun l -> l.on_send) layers in
  let inbound = List.filter_map (fun l -> l.on_deliver) layers in
  up :=
    {
      emit =
        (fun src dst m ->
          let gm = io.out src dst m in
          if admits outbound ~src ~dst gm then wire ~src ~dst gm;
          match m with Lid.Prop -> det.arm src dst | Lid.Rej -> ());
      dispatch =
        (fun ~src ~dst gm ->
          if not correct.(dst) then
            programs.(dst).Adversary.on_receive ~src gm ~send:(byz_send dst)
          else if admits inbound ~src ~dst gm then begin
            if c.retired.(dst) then begin
              (* amnesiac membership stub: the pre-crash state is gone,
                 decline everything *)
              match gm.Guard.body with
              | Guard.Prop _ ->
                  det.stub ();
                  io.send_rej dst src
              | Guard.Rej -> ()
            end
            else io.feed ~src ~dst (lid_message gm)
          end);
    };
  schedule_crashes c crashes ~restart ~send_rej:io.send_rej;
  (* --- go: adversaries open their mouths first, then the honest burst,
     then the re-announced bootstrap declines ------------------------- *)
  Array.iteri
    (fun f ok -> if not ok then programs.(f).Adversary.on_init ~send:(byz_send f))
    correct;
  Lid.start st ~emit:(fun src dst m -> if correct.(src) then emit src dst m);
  List.iter (fun (i, p) -> io.send_rej i p) !bootstrap;
  let cutoff =
    match deadline with None -> Simnet.run c.net; None | Some (_, stop) -> Some (stop ())
  in
  Option.iter det.quiet guards;
  (* --- terminal accounting ------------------------------------------ *)
  let layers =
    List.map (fun l -> { layer = l.mw_name; counters = l.mw_counters () }) layers
  in
  let matching = Bmatching.of_edge_ids g ~capacity (Lazy.force served) in
  let unterminated = stragglers c in
  let quiescence =
    List.filter
      (fun v ->
        match v.Violation.subject with
        | Violation.Node i -> correct.(i) && live c i
        | _ -> true)
      (Lid.quiescence_violations st)
  in
  let offence_counts, byz_offenders, byz_quarantined =
    match guards with None -> ([], 0, 0) | Some gs -> guard_tally correct gs
  in
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
  let cell = cell layers in
  {
    matching;
    correct;
    participating = Array.init n (fun i -> correct.(i) && live c i);
    prop_count = cell ~layer:"lid" "prop";
    rej_count = cell ~layer:"lid" "rej";
    delivered = Simnet.messages_delivered c.net;
    dropped = Simnet.messages_dropped c.net;
    synthetic_rejects = cell ~layer:"detector" "synthetic-rej";
    quarantine_events = cell ~layer:"guard" "quarantines";
    byz_offenders;
    byz_quarantined;
    offence_counts;
    wasted_slots;
    completion_time = Simnet.now c.net;
    all_terminated = unterminated = [];
    unterminated;
    quiescence;
    damage;
    cutoff;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* exhaustive exploration (the inbound composition, pure)              *)
(* ------------------------------------------------------------------ *)

type explore_state = { lid : Lid.state; eguards : Guard.t array option }

(* the guarded (or bare) inbound composition as a pure Explore.protocol,
   so the explorer model-checks the code the production stack runs: the
   bootstrap weights from {!perceived} (honest adverts, no vetting),
   the guard layer's {!screen} above the unchanged Lid.deliver, the
   quarantine re-announcement and the quiet-round give-up hook.
   Deliveries to non-[correct] nodes are no-ops: the explorer's
   adversary injects their traffic instead. *)
let explore_protocol ~guard ~correct prefs w ~capacity =
  let g = Preference.graph prefs in
  (* adverts are honest in the exhaustive model: adversarial over-bound
     claims enter through the explorer's injection repertoire instead,
     so every attack is interleaved with deliveries rather than fixed
     at t = 0 *)
  let perceived =
    perceived prefs g ~correct ~advert:(Weights.half prefs) ~accept:(fun _ _ _ -> true)
  in
  let wire src dst m =
    let payload =
      match m with Lid.Prop -> prop (Weights.half prefs src dst) | Lid.Rej -> rej
    in
    { Explore.src; dst; payload }
  in
  (* the wire messages a transition of the machine sends, in order *)
  let sends transition =
    let out = ref [] in
    transition (fun src dst m -> out := wire src dst m :: !out);
    List.rev !out
  in
  let step lid ~src ~dst lm = sends (fun emit -> Lid.deliver lid ~src ~dst lm ~emit) in
  let mk_guards () = if guard then Some (guards_for prefs g) else None in
  let deliver st ~src ~dst (m : Guard.msg) =
    if not (correct dst) then []
    else begin
      match st.eguards with
      | None -> step st.lid ~src ~dst (lid_message m)
      | Some gs ->
          (* a quarantine re-announces the decline, then releases the
             offender through the synthetic REJ, as the guard layer does *)
          let quarantined = ref [] in
          let quarantine at ~peer =
            quarantined :=
              { Explore.src = at; dst = peer; payload = rej }
              :: step st.lid ~src:peer ~dst:at Lid.Rej
          in
          if screen gs ~quarantine ~src ~dst m then step st.lid ~src ~dst (lid_message m)
          else !quarantined
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
  let stragglers st = List.filter correct (Lid.unterminated_nodes st.lid) in
  {
    Explore.init =
      (fun () ->
        let lid = Lid.init ~perceived w ~capacity in
        ({ lid; eguards = mk_guards () }, sends (fun emit -> Lid.start lid ~emit)));
    deliver;
    copy =
      (fun st ->
        let eguards = Option.map (Array.map Guard.copy) st.eguards in
        { lid = Lid.copy_state st.lid; eguards });
    fingerprint =
      (fun st ->
        let gs = Option.fold ~none:[||] ~some:(Array.map Guard.fingerprint) st.eguards in
        String.concat "|" (Lid.fingerprint st.lid :: Array.to_list gs));
    quiesced = (fun st -> stragglers st = []);
    stragglers;
    observe = (fun st -> Lid.locked_edge_ids st.lid);
    msg_tag;
    give_up =
      (if not guard then None
       else
         Some
           (fun st ~self ~peer ->
             if correct self then step st.lid ~src:peer ~dst:self Lid.Rej else []));
  }

(* ------------------------------------------------------------------ *)
(* Byzantine accounting and exhaustive verification                    *)
(* ------------------------------------------------------------------ *)

let satisfaction_of_correct prefs (r : report) =
  let total = ref 0.0 in
  Array.iteri
    (fun i c -> if c then total := !total +. Bmatching.satisfaction prefs r.matching i)
    r.correct;
  !total

let lic_reference prefs ~keep ~quota =
  let g = Preference.graph prefs in
  let nodes = Array.of_list (List.filter keep (List.init (Graph.node_count g) Fun.id)) in
  let sub, old_of_new = Graph.induced_subgraph g nodes in
  let arr = Array.make (Graph.edge_count sub) 0.0 in
  Graph.iter_edges sub (fun eid u v ->
      let ou = old_of_new.(u) and ov = old_of_new.(v) in
      arr.(eid) <- Weights.half prefs ou ov +. Weights.half prefs ov ou);
  (old_of_new, Lic_indexed.run (Weights.of_array sub arr) ~capacity:(Array.map quota old_of_new))

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
    let towards = Array.to_list (Graph.neighbor_nodes g byz) in
    let per_neighbour v =
      let honest = prop (Weights.half prefs byz v) in
      List.map
        (fun payload -> { Explore.src = byz; dst = v; payload })
        [ honest; prop lie; rej; { honest with epoch = -1 } ]
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
