let connected_components g =
  let n = Graph.node_count g in
  let label = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !count in
      incr count;
      label.(s) <- c;
      Queue.push s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Graph.iter_neighbors g u (fun v _ ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              Queue.push v queue
            end)
      done
    end
  done;
  (label, !count)

let is_connected g =
  let _, count = connected_components g in
  count <= 1

let bfs_distances g src =
  let n = Graph.node_count g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v _ ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
  done;
  dist

let farthest g src =
  let dist = bfs_distances g src in
  let best = ref src in
  Array.iteri (fun v d -> if d > dist.(!best) then best := v) dist;
  (!best, dist.(!best))

let eccentricity_lower_bound g =
  if Graph.node_count g = 0 then 0
  else begin
    let a, _ = farthest g 0 in
    let _, d = farthest g a in
    d
  end

let average_degree g =
  let n = Graph.node_count g in
  if n = 0 then 0.0 else 2.0 *. float_of_int (Graph.edge_count g) /. float_of_int n

let density g =
  let n = Graph.node_count g in
  if n < 2 then 0.0
  else 2.0 *. float_of_int (Graph.edge_count g) /. float_of_int (n * (n - 1))

let triangle_count g =
  (* for each edge (u,v) count common neighbours w > v using merge on
     sorted adjacency; each triangle counted once via ordering u < v < w *)
  let count = ref 0 in
  Graph.iter_edges g (fun _ u v ->
      let nbr = g.Graph.nbr in
      let i = ref g.Graph.off.(u) and j = ref g.Graph.off.(v) in
      let nu = g.Graph.off.(u + 1) and nv = g.Graph.off.(v + 1) in
      while !i < nu && !j < nv do
        let x = nbr.(!i) and y = nbr.(!j) in
        if x = y then begin
          if x > v then incr count;
          incr i;
          incr j
        end
        else if x < y then incr i
        else incr j
      done);
  !count

let degree_assortativity g =
  let m = Graph.edge_count g in
  if m < 2 then 0.0
  else begin
    (* Pearson correlation over the 2m ordered endpoint pairs *)
    let sxy = ref 0.0 and sx = ref 0.0 and sx2 = ref 0.0 in
    Graph.iter_edges g (fun _ u v ->
        let du = float_of_int (Graph.degree g u)
        and dv = float_of_int (Graph.degree g v) in
        (* both orientations, accumulated symmetrically *)
        sxy := !sxy +. (2.0 *. du *. dv);
        sx := !sx +. du +. dv;
        sx2 := !sx2 +. (du *. du) +. (dv *. dv));
    let n = 2.0 *. float_of_int m in
    let mean = !sx /. n in
    let var = (!sx2 /. n) -. (mean *. mean) in
    if var <= 1e-12 then 0.0 else ((!sxy /. n) -. (mean *. mean)) /. var
  end

let open_triads g =
  let acc = ref 0 in
  for v = 0 to Graph.node_count g - 1 do
    let d = Graph.degree g v in
    acc := !acc + (d * (d - 1) / 2)
  done;
  !acc

let global_clustering g =
  let triads = open_triads g in
  if triads = 0 then 0.0 else 3.0 *. float_of_int (triangle_count g) /. float_of_int triads
