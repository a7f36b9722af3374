type combiner = Sum | Min | Product

type t = { graph : Graph.t; w : float array }

(* ΔS̄_i at rank [r] of i's list: node i's half of eq. 9 *)
let half_at_rank prefs i r =
  let l = Preference.list_len prefs i and b = Preference.quota prefs i in
  if l = 0 || b = 0 then 0.0 else Satisfaction.static_delta ~quota:b ~list_len:l ~rank:r

let half prefs i j = half_at_rank prefs i (Preference.rank prefs i j)

(* One increasing pass over the nodes, ranks read by slot: the lower
   endpoint u of an edge is visited first and stores its half, the upper
   endpoint v then combines its half in place, so [w.(e)] is
   [combine (half u v) (half v u)].  Each row is checked once, as
   [half_at_rank] does per entry: quota and list length positive
   (Preference keeps quotas in [0, l]), and its ranks are a permutation
   of 0 .. l - 1 by Preference's invariant, so every slot's half is
   eq. 5 without per-entry checks. *)
let of_preference ?(combiner = Sum) prefs =
  let g = Preference.graph prefs in
  let w = Array.make (Graph.edge_count g) 0.0 in
  for i = 0 to Graph.node_count g - 1 do
    let list_len = Preference.list_len prefs i and quota = Preference.quota prefs i in
    let live = list_len > 0 && quota > 0 in
    for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
      let j = g.Graph.nbr.(s) and eid = g.Graph.eid.(s) in
      let h =
        if live then
          Satisfaction.static_delta_unchecked ~quota ~list_len
            ~rank:(Preference.slot_rank prefs s)
        else 0.0
      in
      w.(eid) <-
        (if i < j then h
         else
           match combiner with
           | Sum -> w.(eid) +. h
           | Min -> Float.min w.(eid) h
           | Product -> w.(eid) *. h)
    done
  done;
  { graph = g; w }

let of_array g w =
  if Array.length w <> Graph.edge_count g then
    invalid_arg "Weights.of_array: arity mismatch";
  Array.iteri
    (fun e x ->
      if not (Float.is_finite x) then
        invalid_arg
          (Printf.sprintf "Weights.of_array: edge %d (%d, %d) has non-finite weight %g" e
             (Graph.edge_u g e) (Graph.edge_v g e) x))
    w;
  { graph = g; w = Array.copy w }

let graph t = t.graph
let weight t e = t.w.(e)
let unsafe_weights t = t.w

let weight_uv t u v =
  match Graph.find_edge t.graph u v with
  | Some e -> t.w.(e)
  | None -> raise Not_found

let compare_edges t e f =
  if e = f then 0
  else begin
    let c = Float.compare t.w.(e) t.w.(f) in
    if c <> 0 then c
    else begin
      (* deterministic identity tie-break so the order is total: lower
         endpoint, upper endpoint, id *)
      let g = t.graph in
      let c = Int.compare g.Graph.eu.(e) g.Graph.eu.(f) in
      if c <> 0 then c
      else
        let c = Int.compare g.Graph.ev.(e) g.Graph.ev.(f) in
        if c <> 0 then c else Int.compare e f
    end
  end

let heavier t e f = compare_edges t e f > 0

let total t edges = Array.fold_left (fun acc e -> acc +. t.w.(e)) 0.0 edges

let distinct_weights t =
  let tbl = Hashtbl.create (Array.length t.w) in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) t.w;
  Hashtbl.length tbl

let max_weight_edge t =
  let m = Array.length t.w in
  if m = 0 then None
  else begin
    let best = ref 0 in
    for e = 1 to m - 1 do
      if heavier t e !best then best := e
    done;
    Some !best
  end
