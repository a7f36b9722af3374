type t = {
  n : int;
  off : int array;
  nbr : int array;
  eid : int array;
  eu : int array;
  ev : int array;
}

module Builder = struct
  (* Edges are deduplicated online, because callers such as [Gen.gnm]'s
     rejection loop need [add_edge]'s answer on every draw: an
     open-addressed set of packed keys [u * bn + v] (u < v), linear
     probing over a power-of-two array indexed by the top bits of a
     multiplicative hash, empty slots holding -1.  Endpoints are
     appended to two growable int arrays in insertion order, which is
     edge-id order. *)
  type t = {
    bn : int;
    mutable keys : int array;
    mutable shift : int; (* 63 - log2 (Array.length keys) *)
    mutable bu : int array;
    mutable bv : int array;
    mutable count : int;
  }

  let initial_bits = 4

  (* [edges] presizes the set to the first power of two holding that many
     keys at load 1/2, and the endpoint arrays to [edges], so a caller
     that knows its edge count never pays a doubling *)
  let create ?(edges = 0) n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    if edges < 0 then invalid_arg "Graph.Builder.create: negative edge hint";
    let bits = ref initial_bits in
    while 1 lsl !bits < 2 * edges do
      incr bits
    done;
    {
      bn = n;
      keys = Array.make (1 lsl !bits) (-1);
      shift = 63 - !bits;
      bu = Array.make edges 0;
      bv = Array.make edges 0;
      count = 0;
    }

  let check b u v =
    if u = v then invalid_arg "Graph.Builder: self-loop";
    if u < 0 || v < 0 || u >= b.bn || v >= b.bn then
      invalid_arg "Graph.Builder: endpoint out of range"

  let key b u v = if u < v then (u * b.bn) + v else (v * b.bn) + u

  (* slot where [k] lives or would be inserted *)
  let probe b k =
    let keys = b.keys in
    let mask = Array.length keys - 1 in
    let i = ref ((k * 0x2545F4914F6CDD1D) lsr b.shift) in
    while
      let x = Array.unsafe_get keys !i in
      x >= 0 && x <> k
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow_set b =
    let old = b.keys in
    b.keys <- Array.make (2 * Array.length old) (-1);
    b.shift <- b.shift - 1;
    Array.iter (fun k -> if k >= 0 then b.keys.(probe b k) <- k) old

  let grow_endpoints b =
    let cap = max 16 (2 * b.count) in
    let extend a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 b.count;
      a'
    in
    b.bu <- extend b.bu;
    b.bv <- extend b.bv

  let mem_edge b u v =
    check b u v;
    let k = key b u v in
    b.keys.(probe b k) = k

  let add_edge b u v =
    check b u v;
    let k = key b u v in
    let s = probe b k in
    if b.keys.(s) = k then false
    else begin
      b.keys.(s) <- k;
      if b.count = Array.length b.bu then grow_endpoints b;
      b.bu.(b.count) <- (if u < v then u else v);
      b.bv.(b.count) <- (if u < v then v else u);
      b.count <- b.count + 1;
      (* load factor at most 1/2 *)
      if 2 * b.count > Array.length b.keys then grow_set b;
      true
    end

  let edge_count b = b.count

  (* Rows sorted by neighbour in O(n + m), by two counting-sort passes.
     Pass 1 buckets every arc by its target: bucket [t] is [t]'s row in
     edge-id order.  Pass 2 walks the buckets by ascending target and
     appends each arc to its source's row, so every row receives its
     neighbours in ascending order.  Pass 1 keeps each arc's source and
     edge id side by side in [arcs], so its scattered writes touch one
     cache line per arc. *)
  let build b =
    let n = b.bn and m = b.count in
    let eu = Array.sub b.bu 0 m and ev = Array.sub b.bv 0 m in
    let off = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      off.(eu.(e) + 1) <- off.(eu.(e) + 1) + 1;
      off.(ev.(e) + 1) <- off.(ev.(e) + 1) + 1
    done;
    for u = 0 to n - 1 do
      off.(u + 1) <- off.(u + 1) + off.(u)
    done;
    let fill = Array.copy off in
    let arcs = Array.make (4 * m) 0 in
    let push t s e =
      let k = fill.(t) in
      arcs.(2 * k) <- s;
      arcs.((2 * k) + 1) <- e;
      fill.(t) <- k + 1
    in
    for e = 0 to m - 1 do
      push ev.(e) eu.(e) e;
      push eu.(e) ev.(e) e
    done;
    Array.blit off 0 fill 0 (n + 1);
    let nbr = Array.make (2 * m) 0 and eid = Array.make (2 * m) 0 in
    for t = 0 to n - 1 do
      for k = off.(t) to off.(t + 1) - 1 do
        let s = arcs.(2 * k) in
        let slot = fill.(s) in
        nbr.(slot) <- t;
        eid.(slot) <- arcs.((2 * k) + 1);
        fill.(s) <- slot + 1
      done
    done;
    { n; off; nbr; eid; eu; ev }
end

let node_count g = g.n
let edge_count g = Array.length g.eu
let edge_u g e = g.eu.(e)
let edge_v g e = g.ev.(e)
let edge_endpoints g e = (g.eu.(e), g.ev.(e))
let degree g u = g.off.(u + 1) - g.off.(u)

let neighbors g u =
  let o = g.off.(u) in
  Array.init (degree g u) (fun k -> (g.nbr.(o + k), g.eid.(o + k)))

let neighbor_nodes g u = Array.sub g.nbr g.off.(u) (degree g u)

(* slot of [v] in [u]'s row, or -1 *)
let find_slot g u v =
  let lo = ref g.off.(u) and hi = ref (g.off.(u + 1) - 1) and res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.nbr.(mid) in
    if w = v then res := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !res

let find_edge g u v =
  let s = find_slot g u v in
  if s < 0 then None else Some g.eid.(s)

let mem_edge g u v = find_slot g u v >= 0

let iter_edges g f =
  for e = 0 to edge_count g - 1 do
    f e g.eu.(e) g.ev.(e)
  done

let iter_neighbors g u f =
  for s = g.off.(u) to g.off.(u + 1) - 1 do
    f g.nbr.(s) g.eid.(s)
  done

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
