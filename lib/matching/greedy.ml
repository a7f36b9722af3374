let run_restricted w ~capacity ~allowed =
  let g = Weights.graph w in
  let m = Graph.edge_count g in
  let order = Array.init m (fun e -> e) in
  (* descending: heavier first *)
  Array.sort (fun e f -> Weights.compare_edges w f e) order;
  let residual = Array.copy capacity in
  let chosen = ref [] in
  Array.iter
    (fun eid ->
      if allowed eid then begin
        let u = Graph.edge_u g eid and v = Graph.edge_v g eid in
        if residual.(u) > 0 && residual.(v) > 0 then begin
          residual.(u) <- residual.(u) - 1;
          residual.(v) <- residual.(v) - 1;
          chosen := eid :: !chosen
        end
      end)
    order;
  Bmatching.of_edge_ids g ~capacity (List.rev !chosen)

let run w ~capacity = run_restricted w ~capacity ~allowed:(fun _ -> true)
