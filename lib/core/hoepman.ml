module Simnet = Owp_simnet.Simnet
module Bmatching = Owp_matching.Bmatching

type message = Req | Drop

type report = {
  matching : Bmatching.t;
  req_count : int;
  drop_count : int;
  completion_time : float;
  all_terminated : bool;
}

type node_state = {
  wsorted : (int * int) array; (* (neighbour, edge id), heaviest first *)
  dropped : (int, unit) Hashtbl.t;
  requests : (int, unit) Hashtbl.t; (* neighbours that REQ'd us *)
  mutable target : int; (* current candidate, -1 none *)
  mutable partner : int; (* matched partner, -1 none *)
  mutable finished : bool;
}

let run ?(seed = 0x40E) ?(delay = Simnet.Uniform (0.5, 1.5)) w =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  let net = Simnet.create ~seed ~nodes:(max n 1) ~delay () in
  let req_count = ref 0 and drop_count = ref 0 in
  let state =
    Array.init n (fun i ->
        let ws = Graph.neighbors g i in
        Array.sort (fun (_, e) (_, f) -> Weights.compare_edges w f e) ws;
        {
          wsorted = ws;
          dropped = Hashtbl.create 8;
          requests = Hashtbl.create 8;
          target = -1;
          partner = -1;
          finished = false;
        })
  in
  let send_req src dst =
    incr req_count;
    Simnet.send net ~src ~dst Req
  in
  let send_drop src dst =
    incr drop_count;
    Simnet.send net ~src ~dst Drop
  in
  let candidate i =
    let s = state.(i) in
    let rec scan k =
      if k >= Array.length s.wsorted then -1
      else begin
        let v, _ = s.wsorted.(k) in
        if Hashtbl.mem s.dropped v then scan (k + 1) else v
      end
    in
    scan 0
  in
  let lock i v =
    let s = state.(i) in
    s.partner <- v;
    s.finished <- true;
    Array.iter
      (fun (u, _) -> if u <> v && not (Hashtbl.mem s.dropped u) then send_drop i u)
      s.wsorted
  in
  let retarget i =
    let s = state.(i) in
    let c = candidate i in
    if c < 0 then s.finished <- true
    else if c <> s.target then begin
      s.target <- c;
      send_req i c;
      if Hashtbl.mem s.requests c then lock i c
    end
  in
  let handle ~src ~dst m =
    let i = dst and u = src in
    let s = state.(i) in
    if not s.finished then
      match m with
      | Req ->
          Hashtbl.replace s.requests u ();
          if s.target = u then lock i u
      | Drop ->
          Hashtbl.replace s.dropped u ();
          Hashtbl.remove s.requests u;
          if s.target = u then begin
            s.target <- -1;
            retarget i
          end
  in
  Simnet.set_handler net handle;
  for i = 0 to n - 1 do
    retarget i
  done;
  Simnet.run net;
  let ids = ref [] in
  Graph.iter_edges g (fun eid a b ->
      if state.(a).partner = b && state.(b).partner = a then ids := eid :: !ids);
  let matching = Bmatching.of_edge_ids g ~capacity:(Array.make n 1) !ids in
  {
    matching;
    req_count = !req_count;
    drop_count = !drop_count;
    completion_time = Simnet.now net;
    all_terminated = Array.for_all (fun s -> s.finished) state;
  }
