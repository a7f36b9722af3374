module Prng = Owp_util.Prng

let gnp rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  let b = Graph.Builder.create n in
  if p > 0.0 then begin
    if p >= 1.0 then
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          ignore (Graph.Builder.add_edge b u v)
        done
      done
    else begin
      (* Batagelj–Brandes skipping: iterate potential edges in lexicographic
         order, jumping geometrically distributed gaps. *)
      let log1mp = log (1.0 -. p) in
      let v = ref 1 and w = ref (-1) in
      while !v < n do
        let r = 1.0 -. Prng.float rng 1.0 in
        w := !w + 1 + int_of_float (floor (log r /. log1mp));
        while !w >= !v && !v < n do
          w := !w - !v;
          incr v
        done;
        if !v < n then ignore (Graph.Builder.add_edge b !v !w)
      done
    end
  end;
  Graph.Builder.build b

let max_edges n = n * (n - 1) / 2

let gnm rng ~n ~m =
  if m < 0 || m > max_edges n then invalid_arg "Gen.gnm: m out of range";
  let b = Graph.Builder.create ~edges:m n in
  (* dense case: sample edge indices without replacement *)
  if 2 * m > max_edges n then begin
    let ids = Prng.sample_without_replacement rng m (max_edges n) in
    (* decode linear index into (u, v), u < v *)
    Array.iter
      (fun idx ->
        (* find u such that idx falls in row u of the strictly upper triangle *)
        let u = ref 0 and rem = ref idx in
        while !rem >= n - 1 - !u do
          rem := !rem - (n - 1 - !u);
          incr u
        done;
        ignore (Graph.Builder.add_edge b !u (!u + 1 + !rem)))
      ids
  end
  else begin
    while Graph.Builder.edge_count b < m do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then ignore (Graph.Builder.add_edge b u v)
    done
  end;
  Graph.Builder.build b

let complete n =
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Graph.Builder.add_edge b u v)
    done
  done;
  Graph.Builder.build b

let barabasi_albert rng ~n ~m =
  if m < 1 || n <= m then invalid_arg "Gen.barabasi_albert: need n > m >= 1";
  let b = Graph.Builder.create n in
  (* endpoint multiset: picking a uniform entry = degree-proportional pick *)
  let endpoints = ref [] and nend = ref 0 in
  let push x =
    endpoints := x :: !endpoints;
    incr nend
  in
  (* seed clique on the first m+1 nodes *)
  for u = 0 to m do
    for v = u + 1 to m do
      ignore (Graph.Builder.add_edge b u v);
      push u;
      push v
    done
  done;
  let pool = ref (Array.of_list !endpoints) in
  let pool_len = ref (Array.length !pool) in
  let pool_push x =
    if !pool_len >= Array.length !pool then begin
      let np = Array.make (max 16 (2 * Array.length !pool)) 0 in
      Array.blit !pool 0 np 0 !pool_len;
      pool := np
    end;
    !pool.(!pool_len) <- x;
    incr pool_len
  in
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    while Hashtbl.length chosen < m do
      let t = !pool.(Prng.int rng !pool_len) in
      if t <> v then Hashtbl.replace chosen t ()
    done;
    List.iter
      (fun t ->
        ignore (Graph.Builder.add_edge b v t);
        pool_push v;
        pool_push t)
      (List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) chosen []))
  done;
  Graph.Builder.build b

let watts_strogatz rng ~n ~k ~beta =
  if k < 1 || n <= 2 * k then invalid_arg "Gen.watts_strogatz: need n > 2k";
  if beta < 0.0 || beta > 1.0 then invalid_arg "Gen.watts_strogatz: beta out of range";
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    for offset = 1 to k do
      let v = (u + offset) mod n in
      if Prng.bernoulli rng beta then begin
        (* rewire: keep u, draw a fresh partner avoiding loops/duplicates *)
        let attempts = ref 0 and placed = ref false in
        while (not !placed) && !attempts < 32 do
          incr attempts;
          let w = Prng.int rng n in
          if w <> u && not (Graph.Builder.mem_edge b u w) then begin
            ignore (Graph.Builder.add_edge b u w);
            placed := true
          end
        done;
        if not !placed then ignore (Graph.Builder.add_edge b u v)
      end
      else ignore (Graph.Builder.add_edge b u v)
    done
  done;
  Graph.Builder.build b

let random_geometric rng ~n ~radius =
  let pts = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let b = Graph.Builder.create n in
  let r2 = radius *. radius in
  (* cell grid for near-linear neighbour search *)
  let cell = max 1 (int_of_float (1.0 /. Float.max radius 1e-9)) in
  let buckets = Hashtbl.create (2 * n) in
  let key x y = (x * cell) + y in
  Array.iteri
    (fun i (x, y) ->
      let cx = min (cell - 1) (int_of_float (x *. float_of_int cell)) in
      let cy = min (cell - 1) (int_of_float (y *. float_of_int cell)) in
      Hashtbl.add buckets (key cx cy) i)
    pts;
  Array.iteri
    (fun i (x, y) ->
      let cx = min (cell - 1) (int_of_float (x *. float_of_int cell)) in
      let cy = min (cell - 1) (int_of_float (y *. float_of_int cell)) in
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          let nx = cx + dx and ny = cy + dy in
          if nx >= 0 && ny >= 0 && nx < cell && ny < cell then
            List.iter
              (fun j ->
                if j > i then begin
                  let xj, yj = pts.(j) in
                  let d2 = ((x -. xj) *. (x -. xj)) +. ((y -. yj) *. (y -. yj)) in
                  if d2 <= r2 then ignore (Graph.Builder.add_edge b i j)
                end)
              (Hashtbl.find_all buckets (key nx ny))
        done
      done)
    pts;
  (Graph.Builder.build b, pts)

let grid ~width ~height =
  let n = width * height in
  let b = Graph.Builder.create n in
  let id x y = (y * width) + x in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then ignore (Graph.Builder.add_edge b (id x y) (id (x + 1) y));
      if y + 1 < height then ignore (Graph.Builder.add_edge b (id x y) (id x (y + 1)))
    done
  done;
  Graph.Builder.build b

let torus ~width ~height =
  if width < 3 || height < 3 then invalid_arg "Gen.torus: dimensions must be >= 3";
  let n = width * height in
  let b = Graph.Builder.create n in
  let id x y = (y * width) + x in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      ignore (Graph.Builder.add_edge b (id x y) (id ((x + 1) mod width) y));
      ignore (Graph.Builder.add_edge b (id x y) (id x ((y + 1) mod height)))
    done
  done;
  Graph.Builder.build b

let random_bipartite rng ~left ~right ~p =
  let b = Graph.Builder.create (left + right) in
  for u = 0 to left - 1 do
    for v = left to left + right - 1 do
      if Prng.bernoulli rng p then ignore (Graph.Builder.add_edge b u v)
    done
  done;
  Graph.Builder.build b

let sample_power_law rng ~exponent ~min_degree ~max_degree =
  (* inverse-CDF sampling of a discrete power law on [min_degree, max_degree] *)
  let a = 1.0 -. exponent in
  let lo = float_of_int min_degree and hi = float_of_int max_degree in
  let u = Prng.float rng 1.0 in
  let x = ((hi ** a) -. (lo ** a)) *. u +. (lo ** a) in
  let d = int_of_float (x ** (1.0 /. a)) in
  max min_degree (min max_degree d)

let configuration_power_law rng ~n ~exponent ~min_degree =
  if exponent <= 1.0 then invalid_arg "Gen.configuration_power_law: exponent must be > 1";
  let max_degree = max min_degree (n - 1) in
  let degs =
    Array.init n (fun _ -> sample_power_law rng ~exponent ~min_degree ~max_degree)
  in
  (* even total degree *)
  let total = Array.fold_left ( + ) 0 degs in
  if total mod 2 = 1 then degs.(0) <- degs.(0) + 1;
  let stubs = Array.make (Array.fold_left ( + ) 0 degs) 0 in
  let k = ref 0 in
  Array.iteri
    (fun v d ->
      for _ = 1 to d do
        stubs.(!k) <- v;
        incr k
      done)
    degs;
  Prng.shuffle_in_place rng stubs;
  let b = Graph.Builder.create n in
  let i = ref 0 in
  while !i + 1 < Array.length stubs do
    let u = stubs.(!i) and v = stubs.(!i + 1) in
    if u <> v then ignore (Graph.Builder.add_edge b u v);
    i := !i + 2
  done;
  Graph.Builder.build b

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    ignore (Graph.Builder.add_edge b u ((u + 1) mod n))
  done;
  Graph.Builder.build b

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  let b = Graph.Builder.create n in
  for u = 1 to n - 1 do
    ignore (Graph.Builder.add_edge b 0 u)
  done;
  Graph.Builder.build b

let path n =
  if n < 1 then invalid_arg "Gen.path: need n >= 1";
  let b = Graph.Builder.create n in
  for u = 0 to n - 2 do
    ignore (Graph.Builder.add_edge b u (u + 1))
  done;
  Graph.Builder.build b
