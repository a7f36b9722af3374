type t = {
  n : int;
  edges : (int * int) array; (* edge id -> (u, v), u < v *)
  adj : (int * int) array array; (* node -> sorted array of (neighbor, edge id) *)
}

module Builder = struct
  type t = {
    bn : int;
    seen : (int, unit) Hashtbl.t; (* normalised edge u < v, packed as u * bn + v *)
    mutable acc : (int * int) list; (* reversed insertion order, normalised u < v *)
    mutable count : int;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    { bn = n; seen = Hashtbl.create 64; acc = []; count = 0 }

  let normalize b u v =
    if u = v then invalid_arg "Graph.Builder: self-loop";
    if u < 0 || v < 0 || u >= b.bn || v >= b.bn then
      invalid_arg "Graph.Builder: endpoint out of range";
    if u < v then (u, v) else (v, u)

  let key b (u, v) = (u * b.bn) + v
  let mem_edge b u v = Hashtbl.mem b.seen (key b (normalize b u v))

  let add_edge b u v =
    let e = normalize b u v in
    let k = key b e in
    if Hashtbl.mem b.seen k then false
    else begin
      Hashtbl.add b.seen k ();
      b.acc <- e :: b.acc;
      b.count <- b.count + 1;
      true
    end

  let edge_count b = b.count

  let build b =
    let m = b.count in
    let edges = Array.make m (0, 0) in
    List.iteri (fun i e -> edges.(m - 1 - i) <- e) b.acc;
    let deg = Array.make b.bn 0 in
    Array.iter
      (fun (u, v) ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      edges;
    let adj = Array.init b.bn (fun i -> Array.make deg.(i) (0, 0)) in
    let fill = Array.make b.bn 0 in
    Array.iteri
      (fun eid (u, v) ->
        adj.(u).(fill.(u)) <- (v, eid);
        fill.(u) <- fill.(u) + 1;
        adj.(v).(fill.(v)) <- (u, eid);
        fill.(v) <- fill.(v) + 1)
      edges;
    Array.iter (fun a -> Array.sort (fun (x, _) (y, _) -> compare x y) a) adj;
    { n = b.bn; edges; adj }
end

let node_count g = g.n
let edge_count g = Array.length g.edges
let edge_endpoints g e = g.edges.(e)
let edges g = g.edges
let degree g u = Array.length g.adj.(u)
let neighbors g u = g.adj.(u)
let neighbor_nodes g u = Array.map fst g.adj.(u)

let find_edge g u v =
  let a = g.adj.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w, eid = a.(mid) in
    if w = v then found := Some eid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge g u v = find_edge g u v <> None

let other_endpoint g e u =
  let a, b = g.edges.(e) in
  if a = u then b
  else if b = u then a
  else invalid_arg "Graph.other_endpoint: node is not an endpoint"

let iter_edges g f = Array.iteri (fun eid (u, v) -> f eid u v) g.edges

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun eid u v -> acc := f !acc eid u v);
  !acc

let iter_neighbors g u f = Array.iter (fun (v, eid) -> f v eid) g.adj.(u)

let max_degree g =
  let d = ref 0 in
  for i = 0 to g.n - 1 do
    d := max !d (degree g i)
  done;
  !d

let of_edge_list n pairs =
  let b = Builder.create n in
  List.iter (fun (u, v) -> ignore (Builder.add_edge b u v)) pairs;
  Builder.build b

let complement_degree_sum g =
  let acc = ref 0 in
  for i = 0 to g.n - 1 do
    acc := !acc + (g.n - 1 - degree g i)
  done;
  !acc

let induced_subgraph g nodes =
  let k = Array.length nodes in
  let new_of_old = Hashtbl.create k in
  Array.iteri (fun ni oi -> Hashtbl.replace new_of_old oi ni) nodes;
  let b = Builder.create k in
  Array.iteri
    (fun ni oi ->
      iter_neighbors g oi (fun v _ ->
          match Hashtbl.find_opt new_of_old v with
          | Some nv when nv > ni -> ignore (Builder.add_edge b ni nv)
          | _ -> ()))
    nodes;
  (Builder.build b, Array.copy nodes)
