module Bmatching = Owp_matching.Bmatching

type strategy = Heaviest_first | Climbing | Random_climb of Owp_util.Prng.t

(* Pool membership: an edge is available iff it is unselected and both
   endpoints still have residual quota (eq. 13's availability). *)
type pool = {
  g : Graph.t;
  w : Weights.t;
  residual : int array;
  selected : bool array;
}

let in_pool p eid =
  (not p.selected.(eid))
  &&
  let u, v = Graph.edge_endpoints p.g eid in
  p.residual.(u) > 0 && p.residual.(v) > 0

(* Heaviest pool edge sharing exactly one endpoint with [eid] (i.e. the
   strongest member of E_ij), or -1. *)
let heaviest_rival p eid =
  let u, v = Graph.edge_endpoints p.g eid in
  let best = ref (-1) in
  let consider e = if e <> eid && in_pool p e && (!best < 0 || Weights.heavier p.w e !best) then best := e in
  Graph.iter_neighbors p.g u (fun _ e -> consider e);
  Graph.iter_neighbors p.g v (fun _ e -> consider e);
  !best

let rec climb p eid =
  let rival = heaviest_rival p eid in
  if rival >= 0 && Weights.heavier p.w rival eid then climb p rival else eid

let select p eid =
  let u, v = Graph.edge_endpoints p.g eid in
  p.selected.(eid) <- true;
  p.residual.(u) <- p.residual.(u) - 1;
  p.residual.(v) <- p.residual.(v) - 1

let run ?(strategy = Heaviest_first) w ~capacity =
  let g = Weights.graph w in
  let m = Graph.edge_count g in
  let p = { g; w; residual = Array.copy capacity; selected = Array.make m false } in
  let chosen = ref [] in
  (match strategy with
  | Heaviest_first ->
      let order = Array.init m (fun e -> e) in
      Array.sort (fun e f -> Weights.compare_edges w f e) order;
      Array.iter
        (fun eid ->
          if in_pool p eid then begin
            (* the heaviest pool edge is locally heaviest by definition *)
            select p eid;
            chosen := eid :: !chosen
          end)
        order
  | Climbing ->
      for seed = 0 to m - 1 do
        (* climbing is restarted from every edge: each restart either
           finds the pool empty near the seed or locks one local max *)
        let e = ref seed in
        while in_pool p !e do
          let top = climb p !e in
          select p top;
          chosen := top :: !chosen
        done
      done
  | Random_climb rng ->
      let order = Owp_util.Prng.permutation rng m in
      Array.iter
        (fun seed ->
          let e = ref seed in
          while in_pool p !e do
            let top = climb p !e in
            select p top;
            chosen := top :: !chosen
          done)
        order);
  Bmatching.of_edge_ids g ~capacity (List.rev !chosen)
