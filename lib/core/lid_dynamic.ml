module Simnet = Owp_simnet.Simnet
module Bmatching = Owp_matching.Bmatching

type step_report = {
  event : Churn.event;
  active_nodes : int;
  total_satisfaction : float;
  weight : float;
  messages_for_event : int;
}

type report = {
  steps : step_report list;
  final_matching : Bmatching.t;
  total_messages : int;
  bootstrap_messages : int;
  quiescent : bool;
}

type message = Prop | Accept | Rej | Leave_msg | Hello | Avail

(* Per-node protocol state.  locked/pending/refused are keyed by
   neighbour id; alive mirrors the active flag of each neighbour as this
   node believes it.  The true flags live in one [active] mask. *)
type node_state = {
  wsorted : (int * int) array; (* (neighbour, edge id), heaviest first *)
  locked : (int, unit) Hashtbl.t;
  pending : (int, unit) Hashtbl.t; (* PROPs awaiting ACCEPT/REJ *)
  refused : (int, unit) Hashtbl.t; (* neighbours that declined since last AVAIL *)
  waitlist : (int, unit) Hashtbl.t; (* proposers declined while slots were only
                                       tentatively (pending-)occupied *)
  alive : (int, unit) Hashtbl.t;
  quota : int;
}

let run ?(seed = 0xD1D) ?(delay = Simnet.Uniform (0.5, 1.5)) ~prefs ~initially_active
    ~events () =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  if Array.length initially_active <> n then
    invalid_arg "Lid_dynamic.run: active mask arity mismatch";
  let w = Weights.of_preference prefs in
  let active = Array.copy initially_active in
  let net = Simnet.create ~seed ~nodes:(max n 1) ~delay () in
  let messages = ref 0 in
  let send src dst m =
    incr messages;
    Simnet.send net ~src ~dst m
  in
  let state =
    Array.init n (fun i ->
        let ws = Graph.neighbors g i in
        Array.sort (fun (_, e) (_, f) -> Weights.compare_edges w f e) ws;
        {
          wsorted = ws;
          locked = Hashtbl.create 8;
          pending = Hashtbl.create 8;
          refused = Hashtbl.create 8;
          waitlist = Hashtbl.create 8;
          alive = Hashtbl.create 8;
          quota = Preference.quota prefs i;
        })
  in
  let free_slots i =
    let s = state.(i) in
    s.quota - Hashtbl.length s.locked - Hashtbl.length s.pending
  in
  (* propose down the weight list to alive, non-locked, non-pending,
     non-refused neighbours while slots remain *)
  let propose i =
    let s = state.(i) in
    if active.(i) then begin
      let k = ref 0 in
      while free_slots i > 0 && !k < Array.length s.wsorted do
        let v, _ = s.wsorted.(!k) in
        if
          Hashtbl.mem s.alive v
          && (not (Hashtbl.mem s.locked v))
          && (not (Hashtbl.mem s.pending v))
          && not (Hashtbl.mem s.refused v)
        then begin
          Hashtbl.replace s.pending v ();
          send i v Prop
        end;
        incr k
      done
    end
  in
  (* capacity became available at [i]: let previously-declined
     neighbours retry, and retry our own refusals *)
  let sorted_keys tbl =
    List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])
  in
  let announce_avail i =
    let s = state.(i) in
    List.iter
      (fun v -> if not (Hashtbl.mem s.locked v) then send i v Avail)
      (sorted_keys s.alive)
  in
  (* capacity that was only tentatively held became real room: tell the
     proposers we turned away so they can retry *)
  let drain_waitlist i =
    let s = state.(i) in
    if active.(i) && free_slots i > 0 && Hashtbl.length s.waitlist > 0 then begin
      let waiting = sorted_keys s.waitlist in
      Hashtbl.reset s.waitlist;
      List.iter
        (fun v ->
          if Hashtbl.mem s.alive v && not (Hashtbl.mem s.locked v) then send i v Avail)
        waiting
    end
  in
  let unlock i v =
    let s = state.(i) in
    if Hashtbl.mem s.locked v then begin
      Hashtbl.remove s.locked v;
      Hashtbl.reset s.refused;
      announce_avail i;
      propose i
    end
  in
  let handle ~src ~dst m =
    let i = dst and u = src in
    let s = state.(i) in
    match m with
    | Prop ->
        if (not active.(i)) || free_slots i + Hashtbl.length s.pending <= 0 then
          send i u Rej
        else if Hashtbl.mem s.locked u then () (* duplicate; already locked *)
        else if Hashtbl.mem s.pending u then begin
          (* simultaneous proposals: treat the peer's PROP as acceptance *)
          Hashtbl.remove s.pending u;
          Hashtbl.replace s.locked u ();
          send i u Accept;
          drain_waitlist i
        end
        else if free_slots i > 0 then begin
          Hashtbl.replace s.locked u ();
          send i u Accept
        end
        else begin
          (* declined only because slots are pending, not locked: the
             proposer may retry once those pendings resolve *)
          Hashtbl.replace s.waitlist u ();
          send i u Rej
        end
    | Accept ->
        if Hashtbl.mem s.pending u then begin
          Hashtbl.remove s.pending u;
          Hashtbl.replace s.locked u ()
        end
        else if not (Hashtbl.mem s.locked u) then
          (* our pending was cleared (e.g. we left and rejoined): honour
             the lock if we still have room, otherwise back out *)
          if active.(i) && free_slots i > 0 then Hashtbl.replace s.locked u ()
          else send i u Leave_msg
    | Rej ->
        if Hashtbl.mem s.pending u then begin
          Hashtbl.remove s.pending u;
          Hashtbl.replace s.refused u ();
          propose i;
          drain_waitlist i
        end
    | Leave_msg ->
        Hashtbl.remove s.alive u;
        Hashtbl.remove s.pending u;
        Hashtbl.remove s.refused u;
        unlock i u
    | Hello ->
        Hashtbl.replace s.alive u ();
        if active.(i) then begin
          Hashtbl.remove s.refused u;
          propose i
        end
    | Avail ->
        if active.(i) then begin
          Hashtbl.remove s.refused u;
          propose i
        end
  in
  Simnet.set_handler net handle;
  (* [i] has just joined: greet its active neighbours, start proposing *)
  let activate i =
    let s = state.(i) in
    Hashtbl.reset s.refused;
    Graph.iter_neighbors g i (fun v _ ->
        if active.(v) then begin
          Hashtbl.replace s.alive v ();
          send i v Hello
        end);
    propose i
  in
  let deactivate i =
    let s = state.(i) in
    List.iter (fun v -> send i v Leave_msg) (sorted_keys s.alive);
    Hashtbl.reset s.alive;
    Hashtbl.reset s.locked;
    Hashtbl.reset s.pending;
    Hashtbl.reset s.refused;
    Hashtbl.reset s.waitlist
  in
  (* run one burst to quiescence; consistency: locked sets must then be
     symmetric *)
  let quiescent = ref true in
  let drain () =
    Simnet.run net;
    Graph.iter_edges g (fun _ a b ->
        if Hashtbl.mem state.(a).locked b <> Hashtbl.mem state.(b).locked a then
          quiescent := false)
  in
  (* bootstrap: the initial peers know each other and start proposing *)
  for i = 0 to n - 1 do
    if active.(i) then
      Graph.iter_neighbors g i (fun v _ ->
          if active.(v) then Hashtbl.replace state.(i).alive v ())
  done;
  for i = 0 to n - 1 do
    if active.(i) then propose i
  done;
  drain ();
  let bootstrap_messages = !messages in
  let current_matching () =
    let ids = ref [] in
    Graph.iter_edges g (fun eid a b ->
        if Hashtbl.mem state.(a).locked b && Hashtbl.mem state.(b).locked a then
          ids := eid :: !ids);
    Bmatching.of_edge_ids g ~capacity:(Churn.capacity prefs active) !ids
  in
  let steps =
    List.map
      (fun event ->
        let before = !messages in
        Churn.apply active event;
        (match event with Churn.Leave v -> deactivate v | Churn.Join v -> activate v);
        drain ();
        let active_nodes, total_satisfaction, weight =
          Churn.measure prefs w active (current_matching ())
        in
        {
          event;
          active_nodes;
          total_satisfaction;
          weight;
          messages_for_event = !messages - before;
        })
      events
  in
  {
    steps;
    final_matching = current_matching ();
    total_messages = !messages;
    bootstrap_messages;
    quiescent = !quiescent;
  }
