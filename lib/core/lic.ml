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

(* climbing is restarted from every seed edge in [order]: each restart
   either finds the pool empty near the seed or locks one local max *)
let climb_from w ~capacity order =
  let g = Weights.graph w in
  let p =
    { g; w; residual = Array.copy capacity; selected = Array.make (Graph.edge_count g) false }
  in
  let chosen = ref [] in
  Array.iter
    (fun seed ->
      while in_pool p seed do
        let top = climb p seed in
        select p top;
        chosen := top :: !chosen
      done)
    order;
  Bmatching.of_edge_ids g ~capacity (List.rev !chosen)

let run ?(strategy = Heaviest_first) w ~capacity =
  let m = Graph.edge_count (Weights.graph w) in
  match strategy with
  | Heaviest_first ->
      (* the heaviest pool edge is locally heaviest by definition, so
         this is the global greedy scan *)
      Owp_matching.Greedy.run w ~capacity
  | Climbing -> climb_from w ~capacity (Array.init m Fun.id)
  | Random_climb rng -> climb_from w ~capacity (Owp_util.Prng.permutation rng m)
