type t = {
  graph : Graph.t;
  quota : int array; (* clamped to list length *)
  lists : int array; (* node i's list, best first, at the slots of i's adjacency row *)
  rank_by_slot : int array; (* rank of the neighbour at each adjacency slot *)
}

(* [fill i lists] writes node i's list, best first, into the slots
   [off.(i) ..] of [lists]; each row is validated and ranked before the
   next is filled.  [slot_of_node] maps each neighbour of the current
   row to its slot and is cleared after the row, so one n-sized scratch
   array finds every entry's slot in O(1). *)
let build g ~quota fill =
  let n = Graph.node_count g in
  if Array.length quota <> n then invalid_arg "Preference.create: arity mismatch with graph";
  let off = g.Graph.off and nbr = g.Graph.nbr in
  let lists = Array.make (Array.length nbr) 0 in
  let rank_by_slot = Array.make (Array.length nbr) (-1) in
  let slot_of_node = Array.make n (-1) in
  for i = 0 to n - 1 do
    fill i lists;
    let lo = off.(i) and hi = off.(i + 1) - 1 in
    for s = lo to hi do
      slot_of_node.(nbr.(s)) <- s
    done;
    for s = lo to hi do
      let j = lists.(s) in
      let slot = if j >= 0 && j < n then slot_of_node.(j) else -1 in
      if slot < 0 then invalid_arg "Preference.create: list contains a non-neighbour";
      if rank_by_slot.(slot) >= 0 then
        invalid_arg "Preference.create: duplicate entry in preference list";
      rank_by_slot.(slot) <- s - lo
    done;
    for s = lo to hi do
      slot_of_node.(nbr.(s)) <- -1
    done
  done;
  let quota =
    Array.mapi
      (fun i b ->
        if b < 0 then invalid_arg "Preference.create: negative quota";
        min b (Graph.degree g i))
      quota
  in
  { graph = g; quota; lists; rank_by_slot }

let create g ~quota ~lists =
  if Array.length lists <> Graph.node_count g then
    invalid_arg "Preference.create: arity mismatch with graph";
  build g ~quota (fun i flat ->
      let deg = Graph.degree g i in
      if Array.length lists.(i) <> deg then
        invalid_arg "Preference.create: list is not a permutation of the neighbourhood";
      Array.blit lists.(i) 0 flat g.Graph.off.(i) deg)

let random rng g ~quota =
  build g ~quota (fun i flat ->
      let pos = g.Graph.off.(i) and len = Graph.degree g i in
      Array.blit g.Graph.nbr pos flat pos len;
      Owp_util.Prng.shuffle_sub rng flat ~pos ~len)

let of_scores g ~quota score =
  build g ~quota (fun i flat ->
      let pos = g.Graph.off.(i) and len = Graph.degree g i in
      let key = Array.init len (fun k -> -.score i g.Graph.nbr.(pos + k)) in
      (* rows are sorted by id, so row index order is id order *)
      let order = Array.init len Fun.id in
      Array.sort
        (fun a b ->
          let c = Float.compare key.(a) key.(b) in
          if c <> 0 then c else Int.compare a b)
        order;
      Array.iteri (fun k r -> flat.(pos + k) <- g.Graph.nbr.(pos + r)) order)

let of_metric g ~quota m = of_scores g ~quota (Metric.score m)

let uniform_quota g b = Array.make (Graph.node_count g) b

let graph t = t.graph
let quota t i = t.quota.(i)

let max_quota t = Array.fold_left max 1 t.quota

let list t i = Array.sub t.lists t.graph.Graph.off.(i) (Graph.degree t.graph i)
let list_len t i = Graph.degree t.graph i

let rank t i j =
  let s = Graph.find_slot t.graph i j in
  if s < 0 then raise Not_found;
  t.rank_by_slot.(s)

let slot_rank t s = t.rank_by_slot.(s)

let preferred t i j k = rank t i j < rank t i k

let satisfaction t i conns =
  let l = list_len t i and b = t.quota.(i) in
  if l = 0 || b = 0 then 0.0
  else Satisfaction.of_ranks ~quota:b ~list_len:l (List.map (rank t i) conns)

let static_satisfaction t i conns =
  let l = list_len t i and b = t.quota.(i) in
  if l = 0 || b = 0 then 0.0
  else Satisfaction.static_of_ranks ~quota:b ~list_len:l (List.map (rank t i) conns)

let total_satisfaction t conns =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. satisfaction t i c) conns;
  !acc

let total_static_satisfaction t conns =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. static_satisfaction t i c) conns;
  !acc

(* Preference-cycle detection.  Vertices of the search digraph are
   directed edges (u -> v), encoded as 2*eid + dir where dir tells
   whether the traversal goes from the lower to the higher endpoint.
   There is an arc (u -> v) ~> (v -> w) iff w ≠ u and v strictly
   prefers w over u.  A directed cycle in this digraph is exactly a
   preference cycle n_0 .. n_{k-1}. *)
let find_preference_cycle t =
  let g = t.graph in
  let m = Graph.edge_count g in
  let nverts = 2 * m in
  let encode eid tail =
    let a, _ = Graph.edge_endpoints g eid in
    if tail = a then 2 * eid else (2 * eid) + 1
  in
  let tail_head code =
    let eid = code / 2 in
    let a, b = Graph.edge_endpoints g eid in
    if code land 1 = 0 then (a, b) else (b, a)
  in
  (* colors: 0 white, 1 grey (on stack), 2 black *)
  let color = Array.make nverts 0 in
  let parent = Array.make nverts (-1) in
  let cycle = ref None in
  let rec dfs code =
    if !cycle = None then begin
      color.(code) <- 1;
      let u, v = tail_head code in
      Graph.iter_neighbors g v (fun w eid ->
          if !cycle = None && w <> u && preferred t v w u then begin
            let next = encode eid v in
            if color.(next) = 1 then begin
              (* found: the cycle's nodes are the tails of the grey chain
                 from [next] down to [code] *)
              let rec collect c acc =
                let tail, _ = tail_head c in
                if c = next then tail :: acc else collect parent.(c) (tail :: acc)
              in
              cycle := Some (collect code [])
            end
            else if color.(next) = 0 then begin
              parent.(next) <- code;
              dfs next
            end
          end);
      color.(code) <- 2
    end
  in
  let code = ref 0 in
  while !cycle = None && !code < nverts do
    if color.(!code) = 0 then dfs !code;
    incr code
  done;
  !cycle

let is_acyclic t = find_preference_cycle t = None
