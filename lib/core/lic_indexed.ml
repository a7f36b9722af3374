module Bmatching = Owp_matching.Bmatching

(* All index state lives in flat arrays: the per-node heaps share one
   backing store over the graph's own CSR offsets (node u's heap is the
   slice [off.(u), off.(u) + hsize.(u))), and edge liveness is derived
   from [selected]/[residual] so heap entries need no back-pointers — a
   dead entry is simply discarded when it surfaces (lazy deletion).

   The engine allocates only the backing store and the liveness arrays:
   weights, offsets and endpoints are read straight from the
   [Weights.t] / [Graph.t] internals ([Weights.unsafe_weights], the
   [Graph.t] fields), never snapshotted, because O(m)-sized copies were
   measurably the dominant cost of the whole run at 10^5-node scale. *)
type t = {
  wt : float array;  (* Weights' own array, read-only here *)
  eu : int array;  (* Graph's own lower endpoints *)
  ev : int array;  (* Graph's own upper endpoints *)
  residual : int array;
  dead : Bytes.t;  (* selected, or an endpoint saturated *)
  off : int array;  (* Graph's own row offsets: heap slice start per node *)
  eid : int array;  (* Graph's own edge id per adjacency slot *)
  hsize : int array;  (* live heap length per node *)
  heap : int array;  (* backing store: edge ids *)
  hw : float array;  (* weight of heap.(i), kept in lock-step *)
}

(* The exact total order of Weights.compare_edges — weight first, then
   (lower endpoint, upper endpoint, id) — inlined over the shared
   arrays so a heap comparison is a few loads, no closure and no
   polymorphic compare.  Indices are edge ids, always in [0, m), so the
   unchecked reads are safe by construction. *)
let tie_heavier st e f =
  let ue = Array.unsafe_get st.eu e and uf = Array.unsafe_get st.eu f in
  if ue <> uf then ue > uf
  else
    let ve = Array.unsafe_get st.ev e and vf = Array.unsafe_get st.ev f in
    if ve <> vf then ve > vf else e > f

let heavier st e f =
  let c = Float.compare (Array.unsafe_get st.wt e) (Array.unsafe_get st.wt f) in
  if c <> 0 then c > 0 else tie_heavier st e f

(* heap-entry order at absolute positions [a]/[b] of the backing store:
   the weight sits next to the id ([hw]), so the common case never
   touches the big weight/endpoint arrays at all — heap traffic stays
   inside the node's slice *)
let entry_heavier st a b =
  let c = Float.compare (Array.unsafe_get st.hw a) (Array.unsafe_get st.hw b) in
  if c <> 0 then c > 0
  else tie_heavier st (Array.unsafe_get st.heap a) (Array.unsafe_get st.heap b)

(* Liveness is one byte: [select] marks the taken edge dead and, the
   moment an endpoint saturates, sweeps that node's adjacency marking
   every incident edge dead (each node saturates at most once, so the
   sweeps cost O(m) total).  The hot paths — the seed scan and every
   lazy-deletion purge — then never chase endpoint tuples or residuals. *)
let alive st e = Bytes.unsafe_get st.dead e = '\000'

(* binary max-heap primitives on node u's slice ---------------------- *)

let swap_entries st a b =
  let tmp = st.heap.(a) in
  st.heap.(a) <- st.heap.(b);
  st.heap.(b) <- tmp;
  let tmp = st.hw.(a) in
  st.hw.(a) <- st.hw.(b);
  st.hw.(b) <- tmp

let rec sift_down st base size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let largest =
      let largest = if entry_heavier st (base + l) (base + i) then l else i in
      let r = l + 1 in
      if r < size && entry_heavier st (base + r) (base + largest) then r else largest
    in
    if largest <> i then begin
      swap_entries st (base + i) (base + largest);
      sift_down st base size largest
    end
  end

let drop_top st u =
  let base = st.off.(u) and size = st.hsize.(u) in
  st.heap.(base) <- st.heap.(base + size - 1);
  st.hw.(base) <- st.hw.(base + size - 1);
  st.hsize.(u) <- size - 1;
  sift_down st base (size - 1) 0

(* heaviest live incident edge of u, purging dead entries for good *)
let rec top st u =
  if st.hsize.(u) = 0 then -1
  else begin
    let e = st.heap.(st.off.(u)) in
    if alive st e then e
    else begin
      drop_top st u;
      top st u
    end
  end

(* Climb to the locally heaviest edge reachable from [e].  An alive edge
   is locally heaviest exactly when it tops both endpoints' heaps: the
   order is strict and alive entries are never removed, so a top that is
   not [e] itself is strictly heavier than [e] — no exclusion lookup (and
   hence no pop/push-back) is ever needed, and each step strictly climbs,
   which bounds the recursion. *)
let rec climb st e =
  let tu = top st (Array.unsafe_get st.eu e) in
  let tv = top st (Array.unsafe_get st.ev e) in
  if tu = e then if tv = e then e else climb st tv
  else if tv = e then climb st tu
  else climb st (if heavier st tu tv then tu else tv)

let saturate st u =
  for s = st.off.(u) to st.off.(u + 1) - 1 do
    Bytes.unsafe_set st.dead st.eid.(s) '\001'
  done

let select st e =
  Bytes.unsafe_set st.dead e '\001';
  let u = st.eu.(e) and v = st.ev.(e) in
  st.residual.(u) <- st.residual.(u) - 1;
  st.residual.(v) <- st.residual.(v) - 1;
  if st.residual.(u) = 0 then saturate st u;
  if st.residual.(v) = 0 then saturate st v

let build w ~capacity =
  let g = Weights.graph w in
  let n = Graph.node_count g and m = Graph.edge_count g in
  let off = g.Graph.off in
  let st =
    {
      wt = Weights.unsafe_weights w;
      eu = g.Graph.eu;
      ev = g.Graph.ev;
      residual = Array.copy capacity;
      dead = Bytes.make m '\000';
      off;
      eid = g.Graph.eid;
      hsize = Array.make n 0;
      heap = Array.make (2 * m) 0;
      hw = Array.make (2 * m) 0.0;
    }
  in
  (* nodes that start saturated (capacity 0) never admit an edge *)
  if Array.exists (fun c -> c <= 0) capacity then
    Graph.iter_edges g (fun e u v ->
        if capacity.(u) <= 0 || capacity.(v) <= 0 then Bytes.set st.dead e '\001');
  (* fill every node's slice in one sweep over the edge array (weights
     are read sequentially here, the only time the engine gathers them),
     then Floyd-heapify each slice: O(deg) per node, O(m) total *)
  for e = 0 to m - 1 do
    let u = st.eu.(e) and v = st.ev.(e) in
    let x = st.wt.(e) in
    let ku = off.(u) + st.hsize.(u) in
    st.heap.(ku) <- e;
    st.hw.(ku) <- x;
    st.hsize.(u) <- st.hsize.(u) + 1;
    let kv = off.(v) + st.hsize.(v) in
    st.heap.(kv) <- e;
    st.hw.(kv) <- x;
    st.hsize.(v) <- st.hsize.(v) + 1
  done;
  for u = 0 to n - 1 do
    let base = off.(u) and k = st.hsize.(u) in
    for i = (k / 2) - 1 downto 0 do
      sift_down st base k i
    done
  done;
  st

let run w ~capacity =
  let g = Weights.graph w in
  let m = Graph.edge_count g in
  let st = build w ~capacity in
  let chosen = ref [] in
  for seed = 0 to m - 1 do
    while alive st seed do
      let e = climb st seed in
      select st e;
      chosen := e :: !chosen
    done
  done;
  Bmatching.of_edge_ids g ~capacity (List.rev !chosen)
