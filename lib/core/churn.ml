module Prng = Owp_util.Prng
module Bmatching = Owp_matching.Bmatching

type event = Join of int | Leave of int

type repair = Full_rebuild | Incremental

type step = {
  event : event;
  active_nodes : int;
  total_satisfaction : float;
  weight : float;
  added : int;
  removed : int;
}

let apply active ev =
  let v = match ev with Join v | Leave v -> v in
  if v < 0 || v >= Array.length active then invalid_arg "Churn.apply: peer id out of range";
  match ev with
  | Join _ ->
      if active.(v) then invalid_arg "Churn.apply: joining active peer";
      active.(v) <- true
  | Leave _ ->
      if not active.(v) then invalid_arg "Churn.apply: leaving inactive peer";
      active.(v) <- false

let capacity prefs active =
  Array.init (Array.length active) (fun v -> if active.(v) then Preference.quota prefs v else 0)

let measure prefs w active m =
  let nodes = ref 0 and sat = ref 0.0 in
  Array.iteri
    (fun v a ->
      if a then begin
        incr nodes;
        sat := !sat +. Bmatching.satisfaction prefs m v
      end)
    active;
  (!nodes, !sat, Bmatching.weight m w)

let random_events rng ~universe ~initially_active ~steps =
  let n = Graph.node_count universe in
  let active = Array.copy initially_active in
  let live = ref (Array.fold_left (fun a b -> if b then a + 1 else a) 0 active) in
  let events = ref [] in
  for _ = 1 to steps do
    let leave = Prng.bool rng && !live > 2 in
    let candidates =
      Array.of_seq (Seq.filter (fun v -> Bool.equal active.(v) leave) (Seq.init n Fun.id))
    in
    if Array.length candidates > 0 then begin
      let v = Prng.pick rng candidates in
      let ev = if leave then Leave v else Join v in
      apply active ev;
      live := if leave then !live - 1 else !live + 1;
      events := ev :: !events
    end
  done;
  List.rev !events

let simulate ~prefs ~initially_active ~events ~repair =
  let g = Preference.graph prefs in
  if Array.length initially_active <> Graph.node_count g then
    invalid_arg "Churn.simulate: active mask arity mismatch";
  let w = Weights.of_preference prefs in
  (* one heaviest-first edge order per call: every repair is LIC
     (Heaviest_first) seeded with the edges it keeps *)
  let order = Array.init (Graph.edge_count g) Fun.id in
  Array.sort (fun e f -> Weights.compare_edges w f e) order;
  let active = Array.copy initially_active in
  let repair_from seed =
    Bmatching.extend (Bmatching.of_edge_ids g ~capacity:(capacity prefs active) seed) order
  in
  let survives eid =
    let u, v = Graph.edge_endpoints g eid in
    active.(u) && active.(v)
  in
  let step before event =
    apply active event;
    let seed =
      match repair with
      | Full_rebuild -> []
      | Incremental -> List.filter survives (Bmatching.edge_ids before)
    in
    let after = repair_from seed in
    let added, removed =
      List.partition (Bmatching.mem after) (Bmatching.symmetric_difference before after)
    in
    let active_nodes, total_satisfaction, weight = measure prefs w active after in
    ( after,
      {
        event;
        active_nodes;
        total_satisfaction;
        weight;
        added = List.length added;
        removed = List.length removed;
      } )
  in
  snd (List.fold_left_map step (repair_from []) events)
