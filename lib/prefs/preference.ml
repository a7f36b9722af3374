type t = {
  graph : Graph.t;
  quota : int array; (* clamped to list length *)
  lists : int array array; (* node -> neighbours, best first *)
  rank_by_slot : int array array; (* node -> rank of the neighbour at sorted-adjacency slot *)
}

let slot_of g i j =
  (* binary search j in the sorted (neighbour, edge) adjacency of i *)
  let a = Graph.neighbors g i in
  let lo = ref 0 and hi = ref (Array.length a - 1) and res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w, _ = a.(mid) in
    if w = j then res := mid else if w < j then lo := mid + 1 else hi := mid - 1
  done;
  !res

let create g ~quota ~lists =
  let n = Graph.node_count g in
  if Array.length quota <> n || Array.length lists <> n then
    invalid_arg "Preference.create: arity mismatch with graph";
  let rank_by_slot =
    Array.init n (fun i ->
        let deg = Graph.degree g i in
        if Array.length lists.(i) <> deg then
          invalid_arg "Preference.create: list is not a permutation of the neighbourhood";
        let ranks = Array.make deg (-1) in
        Array.iteri
          (fun r j ->
            let s = slot_of g i j in
            if s < 0 then
              invalid_arg "Preference.create: list contains a non-neighbour";
            if ranks.(s) >= 0 then
              invalid_arg "Preference.create: duplicate entry in preference list";
            ranks.(s) <- r)
          lists.(i);
        ranks)
  in
  let quota =
    Array.mapi
      (fun i b ->
        if b < 0 then invalid_arg "Preference.create: negative quota";
        min b (Graph.degree g i))
      quota
  in
  { graph = g; quota; lists = Array.map Array.copy lists; rank_by_slot }

let random rng g ~quota =
  let lists =
    Array.init (Graph.node_count g) (fun i ->
        let nbrs = Graph.neighbor_nodes g i in
        Owp_util.Prng.shuffle_in_place rng nbrs;
        nbrs)
  in
  create g ~quota ~lists

let of_scores g ~quota score =
  let lists =
    Array.init (Graph.node_count g) (fun i ->
        let nbrs = Graph.neighbor_nodes g i in
        let keyed = Array.map (fun j -> (-.score i j, j)) nbrs in
        Array.sort
          (fun (a, u) (b, v) ->
            let c = Float.compare a b in
            if c <> 0 then c else Int.compare u v)
          keyed;
        Array.map snd keyed)
  in
  create g ~quota ~lists

let of_metric g ~quota m = of_scores g ~quota (Metric.score m)

let uniform_quota g b = Array.make (Graph.node_count g) b

let graph t = t.graph
let quota t i = t.quota.(i)

let max_quota t = Array.fold_left max 1 t.quota

let list t i = t.lists.(i)
let list_len t i = Array.length t.lists.(i)

let rank t i j =
  let s = slot_of t.graph i j in
  if s < 0 then raise Not_found;
  t.rank_by_slot.(i).(s)

let slot_ranks t i = t.rank_by_slot.(i)

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
