module Bmatching = Owp_matching.Bmatching
module Blocking = Owp_stable.Blocking

(* Apply the move for unmatched edge (u, v): drop the worst partner at
   each saturated endpoint, then add (u, v).  Returns the new matching;
   the caller decides based on the gain. *)
let apply_move prefs m u v eid =
  let drop m x =
    if Bmatching.residual m x > 0 then m
    else
      match Blocking.worst_partner prefs m x with
      | None -> m
      | Some w -> (
          match Graph.find_edge (Bmatching.graph m) x w with
          | Some e -> Bmatching.remove m e
          | None -> assert false)
  in
  let m = drop m u in
  let m = drop m v in
  Bmatching.add m eid

let nodes_touched prefs m u v =
  (* nodes whose satisfaction the move can change: u, v and the dropped
     partners *)
  let dropped x =
    if Bmatching.residual m x > 0 then None else Blocking.worst_partner prefs m x
  in
  let base = [ u; v ] in
  let base = match dropped u with Some w -> w :: base | None -> base in
  match dropped v with Some w -> w :: base | None -> base

let local_total prefs m nodes =
  List.fold_left (fun acc x -> acc +. Bmatching.satisfaction prefs m x) 0.0 nodes

let move_gain prefs m eid =
  if Bmatching.mem m eid then 0.0
  else begin
    let u, v = Graph.edge_endpoints (Bmatching.graph m) eid in
    if Bmatching.capacity m u = 0 || Bmatching.capacity m v = 0 then 0.0
    else begin
      let touched = nodes_touched prefs m u v in
      let before = local_total prefs m touched in
      let m' = apply_move prefs m u v eid in
      local_total prefs m' touched -. before
    end
  end

let local_search ?max_moves prefs m =
  let g = Bmatching.graph m in
  let edge_count = Graph.edge_count g in
  let cap = Option.value max_moves ~default:(max 100 (10 * edge_count)) in
  let current = ref m in
  let moves = ref 0 in
  let improved = ref true in
  while !improved && !moves < cap do
    improved := false;
    (* take the best-gain move of this sweep (steepest ascent keeps the
       pass deterministic and converges in fewer moves than first-fit) *)
    let best_gain = ref 1e-9 and best_edge = ref (-1) in
    for eid = 0 to edge_count - 1 do
      let gain = move_gain prefs !current eid in
      if gain > !best_gain then begin
        best_gain := gain;
        best_edge := eid
      end
    done;
    if !best_edge >= 0 then begin
      let u, v = Graph.edge_endpoints g !best_edge in
      current := apply_move prefs !current u v !best_edge;
      incr moves;
      improved := true
    end
  done;
  (!current, !moves)
