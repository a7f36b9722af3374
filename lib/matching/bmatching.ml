type t = {
  graph : Graph.t;
  capacity : int array;
  selected : Bytes.t; (* one byte per edge id: '\001' when selected *)
  deg : int array; (* matched degree per node *)
  size : int; (* number of selected edges *)
}

let check_capacity_array g capacity =
  if Array.length capacity <> Graph.node_count g then
    invalid_arg "Bmatching: capacity arity mismatch";
  Array.iter (fun b -> if b < 0 then invalid_arg "Bmatching: negative capacity") capacity

let empty g ~capacity =
  check_capacity_array g capacity;
  {
    graph = g;
    capacity = Array.copy capacity;
    selected = Bytes.make (Graph.edge_count g) '\000';
    deg = Array.make (Graph.node_count g) 0;
    size = 0;
  }

let mem t eid =
  eid >= 0 && eid < Bytes.length t.selected && Bytes.get t.selected eid <> '\000'

(* the functional update behind [add] and [remove]: copies the bytes and
   the degrees, O(n + m) *)
let toggle t eid byte delta =
  let u = Graph.edge_u t.graph eid and v = Graph.edge_v t.graph eid in
  let selected = Bytes.copy t.selected and deg = Array.copy t.deg in
  Bytes.set selected eid byte;
  deg.(u) <- deg.(u) + delta;
  deg.(v) <- deg.(v) + delta;
  { t with selected; deg; size = t.size + delta }

let add t eid =
  if eid < 0 || eid >= Graph.edge_count t.graph then
    invalid_arg "Bmatching.add: edge id out of range";
  if mem t eid then invalid_arg "Bmatching.add: edge already selected";
  let u = Graph.edge_u t.graph eid and v = Graph.edge_v t.graph eid in
  if t.deg.(u) >= t.capacity.(u) || t.deg.(v) >= t.capacity.(v) then
    invalid_arg "Bmatching.add: capacity exceeded";
  toggle t eid '\001' 1

let remove t eid =
  if not (mem t eid) then invalid_arg "Bmatching.remove: edge not selected";
  toggle t eid '\000' (-1)

(* Single mutable pass: [add] copies for functional updates, which would
   make bulk construction quadratic. *)
let of_edge_ids g ~capacity ids =
  check_capacity_array g capacity;
  let deg = Array.make (Graph.node_count g) 0 in
  let selected = Bytes.make (Graph.edge_count g) '\000' in
  let size = ref 0 in
  List.iter
    (fun eid ->
      if eid < 0 || eid >= Graph.edge_count g then
        invalid_arg "Bmatching.of_edge_ids: edge id out of range";
      if Bytes.get selected eid <> '\000' then
        invalid_arg "Bmatching.of_edge_ids: duplicate edge id";
      Bytes.set selected eid '\001';
      let u = Graph.edge_u g eid and v = Graph.edge_v g eid in
      if deg.(u) >= capacity.(u) || deg.(v) >= capacity.(v) then
        invalid_arg "Bmatching.of_edge_ids: capacity exceeded";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr size)
    ids;
  { graph = g; capacity = Array.copy capacity; selected; deg; size = !size }

(* one copy, then in-place selection: the greedy completion a
   heaviest-first order gives is LIC (Heaviest_first) seeded with [t] *)
let extend t order =
  let selected = Bytes.copy t.selected and deg = Array.copy t.deg in
  let size = ref t.size in
  Array.iter
    (fun eid ->
      if Bytes.get selected eid = '\000' then begin
        let u = Graph.edge_u t.graph eid and v = Graph.edge_v t.graph eid in
        if deg.(u) < t.capacity.(u) && deg.(v) < t.capacity.(v) then begin
          Bytes.set selected eid '\001';
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1;
          incr size
        end
      end)
    order;
  { t with selected; deg; size = !size }

let graph t = t.graph
let capacity t i = t.capacity.(i)
let size t = t.size
let degree t i = t.deg.(i)
let residual t i = t.capacity.(i) - t.deg.(i)

(* ascending ids in [0, m) for which [keep] holds *)
let ids_where m keep =
  let acc = ref [] in
  for eid = m - 1 downto 0 do
    if keep eid then acc := eid :: !acc
  done;
  !acc

let edge_ids t = ids_where (Bytes.length t.selected) (mem t)

let connections t i =
  let g = t.graph in
  let acc = ref [] in
  for s = g.Graph.off.(i + 1) - 1 downto g.Graph.off.(i) do
    if mem t g.Graph.eid.(s) then acc := g.Graph.nbr.(s) :: !acc
  done;
  !acc

let connection_lists t = Array.init (Graph.node_count t.graph) (connections t)

let satisfaction prefs t i =
  if Preference.graph prefs != t.graph then
    invalid_arg "Bmatching.satisfaction: preferences over another graph";
  let l = Preference.list_len prefs i and b = Preference.quota prefs i in
  if l = 0 || b = 0 then 0.0
  else begin
    let g = t.graph in
    let count = ref 0 and rank_sum = ref 0 in
    for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
      if mem t g.Graph.eid.(s) then begin
        incr count;
        rank_sum := !rank_sum + Preference.slot_rank prefs s
      end
    done;
    Satisfaction.of_rank_sum ~quota:b ~list_len:l ~count:!count ~rank_sum:!rank_sum
  end

let weight t w =
  let acc = ref 0.0 in
  for eid = 0 to Bytes.length t.selected - 1 do
    if mem t eid then acc := !acc +. Weights.weight w eid
  done;
  !acc

let is_maximal t =
  let ok = ref true in
  Graph.iter_edges t.graph (fun eid u v ->
      if (not (mem t eid)) && residual t u > 0 && residual t v > 0 then ok := false);
  !ok

(* both walk every id either side knows, so graphs of different sizes
   compare by their selected ids *)
let span a b = max (Bytes.length a.selected) (Bytes.length b.selected)

let symmetric_difference a b =
  ids_where (span a b) (fun eid -> not (Bool.equal (mem a eid) (mem b eid)))

let equal a b = List.is_empty (symmetric_difference a b)
