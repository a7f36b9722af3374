module Bmatching = Owp_matching.Bmatching

let phase1 prefs =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  let quota = Array.init n (Preference.quota prefs) in
  (* deleted.(x) maps neighbour -> unit when the pair is removed *)
  let deleted = Array.init n (fun _ -> Hashtbl.create 8) in
  let holds = Array.make n [] in
  let hold_count = Array.make n 0 in
  let proposals_held = Array.make n 0 in
  let next = Array.make n 0 in
  let delete_pair x y =
    Hashtbl.replace deleted.(x) y ();
    Hashtbl.replace deleted.(y) x ()
  in
  let queue = Queue.create () in
  for x = 0 to n - 1 do
    if quota.(x) > 0 then Queue.push x queue
  done;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    let list = Preference.list prefs x in
    (* propose while x wants more proposals held and list remains *)
    while proposals_held.(x) < quota.(x) && next.(x) < Array.length list do
      let y = list.(next.(x)) in
      next.(x) <- next.(x) + 1;
      if not (Hashtbl.mem deleted.(x) y) then begin
        if hold_count.(y) < quota.(y) then begin
          holds.(y) <- x :: holds.(y);
          hold_count.(y) <- hold_count.(y) + 1;
          proposals_held.(x) <- proposals_held.(x) + 1
        end
        else if quota.(y) > 0 then begin
          (* y holds its quota: keep x only if better than y's worst *)
          let worst =
            List.fold_left
              (fun acc z ->
                if Preference.rank prefs y z > Preference.rank prefs y acc then z else acc)
              (List.hd holds.(y))
              (List.tl holds.(y))
          in
          if Preference.preferred prefs y x worst then begin
            holds.(y) <- x :: List.filter (fun z -> z <> worst) holds.(y);
            proposals_held.(x) <- proposals_held.(x) + 1;
            proposals_held.(worst) <- proposals_held.(worst) - 1;
            delete_pair y worst;
            Queue.push worst queue
          end
          else delete_pair x y
        end
        else delete_pair x y
      end
    done
  done;
  holds

let mutual_matching prefs holds =
  let g = Preference.graph prefs in
  let n = Graph.node_count g in
  let capacity = Array.init n (Preference.quota prefs) in
  (* x -> set of nodes holding x's proposal *)
  let held_by = Array.init n (fun _ -> Hashtbl.create 4) in
  Array.iteri
    (fun y proposers -> List.iter (fun x -> Hashtbl.replace held_by.(x) y ()) proposers)
    holds;
  let ids = ref [] in
  Graph.iter_edges g (fun eid a b ->
      if Hashtbl.mem held_by.(a) b && Hashtbl.mem held_by.(b) a then ids := eid :: !ids);
  Bmatching.of_edge_ids g ~capacity !ids

let warm_start prefs = mutual_matching prefs (phase1 prefs)

let warm_solve ?max_rounds ?rng prefs =
  Fixtures.satisfy_blocking_pairs ?max_rounds ?rng prefs (warm_start prefs)
