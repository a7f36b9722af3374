module Keyed = Owp_util.Heap.Keyed

let dijkstra ?(allowed = fun _ -> true) g ~length src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let heap = Keyed.create n in
  dist.(src) <- 0.0;
  Keyed.insert heap src 0.0;
  while not (Keyed.is_empty heap) do
    let u, du = Keyed.pop_min heap in
    (* a popped key is final; stale entries are impossible with
       decrease-key, so du = dist.(u) *)
    Graph.iter_neighbors g u (fun v eid ->
        if allowed eid then begin
          let len = length eid in
          if len < 0.0 then invalid_arg "Spath.dijkstra: negative length";
          let nd = du +. len in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            Keyed.insert_or_decrease heap v nd
          end
        end)
  done;
  dist

let path_stretch g ~length ~subgraph ~samples =
  (* group samples by source so each source costs two Dijkstra runs *)
  let by_src = Hashtbl.create 16 in
  List.iter
    (fun (s, d) ->
      let ds = Option.value (Hashtbl.find_opt by_src s) ~default:[] in
      Hashtbl.replace by_src s (d :: ds))
    samples;
  List.fold_left
    (fun acc (s, dsts) ->
      let full = dijkstra g ~length s in
      let sub = dijkstra ~allowed:subgraph g ~length s in
      List.fold_left
        (fun acc d ->
          if Float.equal full.(d) infinity || Float.equal full.(d) 0.0 then acc
          else (sub.(d) /. full.(d)) :: acc)
        acc dsts)
    []
    (List.sort compare (Hashtbl.fold (fun s dsts acc -> (s, dsts) :: acc) by_src []))
