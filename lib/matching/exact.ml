let default_weight_budget = 64
let default_satisfaction_budget = 24

(* Edges sorted heaviest-first under the strict total order; index in
   this array is the branching depth. *)
let sorted_edges w =
  let m = Graph.edge_count (Weights.graph w) in
  let order = Array.init m (fun e -> e) in
  Array.sort (fun e f -> Weights.compare_edges w f e) order;
  order

(* Per-node incident positions in the sorted order, ascending (i.e.
   heaviest incident edge first); used by the capacity bound. *)
let incident_positions g order =
  let m = Array.length order in
  let pos_of_edge = Array.make m 0 in
  Array.iteri (fun pos e -> pos_of_edge.(e) <- pos) order;
  Array.init (Graph.node_count g) (fun v ->
      let o = g.Graph.off.(v) in
      let ps = Array.init (Graph.degree g v) (fun k -> pos_of_edge.(g.Graph.eid.(o + k))) in
      Array.sort Int.compare ps;
      ps)

let max_weight_bmatching ?(max_edges = default_weight_budget) w ~capacity =
  let g = Weights.graph w in
  let m = Graph.edge_count g in
  if m > max_edges then
    invalid_arg
      (Printf.sprintf "Exact.max_weight_bmatching: %d edges exceeds budget %d" m max_edges);
  let order = sorted_edges w in
  let incident = incident_positions g order in
  let wt = Array.map (fun e -> Weights.weight w e) order in
  (* suffix sums of positive weights *)
  let suffix = Array.make (m + 1) 0.0 in
  for k = m - 1 downto 0 do
    suffix.(k) <- suffix.(k + 1) +. Float.max 0.0 wt.(k)
  done;
  let residual = Array.copy capacity in
  let best = ref neg_infinity and best_set = ref [] in
  let chosen = ref [] in
  (* half-sum bound: each completion edge is counted at both endpoints,
     each node can host at most its residual capacity *)
  let capacity_bound k =
    let acc = ref 0.0 in
    for v = 0 to Graph.node_count g - 1 do
      if residual.(v) > 0 then begin
        let taken = ref 0 and idx = ref 0 in
        let ps = incident.(v) in
        while !taken < residual.(v) && !idx < Array.length ps do
          let p = ps.(!idx) in
          if p >= k && wt.(p) > 0.0 then begin
            acc := !acc +. wt.(p);
            incr taken
          end;
          incr idx
        done
      end
    done;
    !acc /. 2.0
  in
  let rec branch k current =
    if current > !best then begin
      best := current;
      best_set := !chosen
    end;
    if k < m && current +. Float.min suffix.(k) (capacity_bound k) > !best +. 1e-12
    then begin
      let eid = order.(k) in
      let u, v = Graph.edge_endpoints g eid in
      (* include branch first: heavier edges first gives good incumbents *)
      if wt.(k) > 0.0 && residual.(u) > 0 && residual.(v) > 0 then begin
        residual.(u) <- residual.(u) - 1;
        residual.(v) <- residual.(v) - 1;
        chosen := eid :: !chosen;
        branch (k + 1) (current +. wt.(k));
        chosen := List.tl !chosen;
        residual.(u) <- residual.(u) + 1;
        residual.(v) <- residual.(v) + 1
      end;
      branch (k + 1) current
    end
  in
  branch 0 0.0;
  Bmatching.of_edge_ids g ~capacity !best_set

let max_weight_value ?max_edges w ~capacity =
  let bm = max_weight_bmatching ?max_edges w ~capacity in
  Bmatching.weight bm w

let max_satisfaction_bmatching ?(max_edges = default_satisfaction_budget) prefs =
  let g = Preference.graph prefs in
  let n = Graph.node_count g and m = Graph.edge_count g in
  if m > max_edges then
    invalid_arg
      (Printf.sprintf "Exact.max_satisfaction_bmatching: %d edges exceeds budget %d" m
         max_edges);
  let capacity = Array.init n (Preference.quota prefs) in
  let residual = Array.copy capacity in
  (* incident edge counts at depth >= k, per node, for the bound *)
  let order = Array.init m (fun e -> e) in
  let remaining_incident = Array.make n 0 in
  Array.iter
    (fun eid ->
      let u, v = Graph.edge_endpoints g eid in
      remaining_incident.(u) <- remaining_incident.(u) + 1;
      remaining_incident.(v) <- remaining_incident.(v) + 1)
    order;
  let conns = Array.make n [] in
  let best = ref neg_infinity and best_set = ref [] in
  let chosen = ref [] in
  (* A future connection of node i gains at most
       ΔS = 1/b + (c - r)/(b·L)  <=  (1/b)·(1 + (b-1)/L)
     (c <= b-1 existing connections, rank r >= 0): more than 1/b when the
     newcomer outranks existing connections, so the naive 1/b bound would
     wrongly prune optimal branches. *)
  let per_conn_bound =
    Array.init n (fun v ->
        let b = capacity.(v) and l = Preference.list_len prefs v in
        if b = 0 || l = 0 then 0.0
        else begin
          let bf = float_of_int b and lf = float_of_int l in
          (1.0 /. bf) *. (1.0 +. ((bf -. 1.0) /. lf))
        end)
  in
  let gain_bound () =
    let acc = ref 0.0 in
    for v = 0 to n - 1 do
      let extra = min residual.(v) remaining_incident.(v) in
      if extra > 0 then acc := !acc +. (float_of_int extra *. per_conn_bound.(v))
    done;
    !acc
  in
  let rec branch k current =
    if current > !best then begin
      best := current;
      best_set := !chosen
    end;
    if k < m && current +. gain_bound () > !best +. 1e-12 then begin
      let eid = order.(k) in
      let u, v = Graph.edge_endpoints g eid in
      remaining_incident.(u) <- remaining_incident.(u) - 1;
      remaining_incident.(v) <- remaining_incident.(v) - 1;
      if residual.(u) > 0 && residual.(v) > 0 then begin
        residual.(u) <- residual.(u) - 1;
        residual.(v) <- residual.(v) - 1;
        let su = Preference.satisfaction prefs u conns.(u)
        and sv = Preference.satisfaction prefs v conns.(v) in
        conns.(u) <- v :: conns.(u);
        conns.(v) <- u :: conns.(v);
        let su' = Preference.satisfaction prefs u conns.(u)
        and sv' = Preference.satisfaction prefs v conns.(v) in
        chosen := eid :: !chosen;
        branch (k + 1) (current +. (su' -. su) +. (sv' -. sv));
        chosen := List.tl !chosen;
        conns.(u) <- List.tl conns.(u);
        conns.(v) <- List.tl conns.(v);
        residual.(u) <- residual.(u) + 1;
        residual.(v) <- residual.(v) + 1
      end;
      branch (k + 1) current;
      remaining_incident.(u) <- remaining_incident.(u) + 1;
      remaining_incident.(v) <- remaining_incident.(v) + 1
    end
  in
  branch 0 0.0;
  (Bmatching.of_edge_ids g ~capacity !best_set, !best)

let max_weight_bipartite w ~capacity ~left =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  if left <= 0 || left >= n then invalid_arg "Exact.max_weight_bipartite: bad split";
  Graph.iter_edges g (fun _ u v ->
      let lu = u < left and lv = v < left in
      if lu = lv then invalid_arg "Exact.max_weight_bipartite: edge inside a part");
  let net = Mcmf.create (n + 2) in
  let source = n and sink = n + 1 in
  for u = 0 to left - 1 do
    ignore (Mcmf.add_edge net ~src:source ~dst:u ~capacity:capacity.(u) ~cost:0.0)
  done;
  for v = left to n - 1 do
    ignore (Mcmf.add_edge net ~src:v ~dst:sink ~capacity:capacity.(v) ~cost:0.0)
  done;
  let handles = Array.make (Graph.edge_count g) (-1) in
  Graph.iter_edges g (fun eid u v ->
      let u, v = if u < left then (u, v) else (v, u) in
      handles.(eid) <-
        Mcmf.add_edge net ~src:u ~dst:v ~capacity:1 ~cost:(-.Weights.weight w eid));
  let _flow, _cost = Mcmf.min_cost_flow net ~source ~sink () in
  let ids = ref [] in
  Array.iteri (fun eid h -> if Mcmf.flow_on net h > 0 then ids := eid :: !ids) handles;
  Bmatching.of_edge_ids g ~capacity !ids
