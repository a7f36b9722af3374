(* Classic BFS formulation of Edmonds' algorithm: grow an alternating
   tree from each free vertex; when two even-level vertices meet, shrink
   the odd cycle by redirecting every vertex's [base] to the cycle's
   least common ancestor; when a free vertex is reached, augment. *)

let maximum_matching g =
  let n = Graph.node_count g in
  let partner = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let base = Array.init n Fun.id in
  let used = Array.make n false in
  let blossom = Array.make n false in
  let queue = Queue.create () in

  let lca a b =
    (* walk to the root marking a's ancestors, then walk from b *)
    let mark = Array.make n false in
    let v = ref a in
    let continue = ref true in
    while !continue do
      v := base.(!v);
      mark.(!v) <- true;
      if partner.(!v) < 0 then continue := false else v := parent.(partner.(!v))
    done;
    let u = ref b in
    let res = ref (-1) in
    while !res < 0 do
      u := base.(!u);
      if mark.(!u) then res := !u
      else u := parent.(partner.(!u))
    done;
    !res
  in
  let mark_path v b child =
    let v = ref v and child = ref child in
    while base.(!v) <> b do
      blossom.(base.(!v)) <- true;
      blossom.(base.(partner.(!v))) <- true;
      parent.(!v) <- !child;
      child := partner.(!v);
      v := parent.(partner.(!v))
    done
  in
  let find_augmenting_path root =
    Array.fill used 0 n false;
    Array.fill parent 0 n (-1);
    Array.iteri (fun i _ -> base.(i) <- i) base;
    Queue.clear queue;
    used.(root) <- true;
    Queue.push root queue;
    let found = ref (-1) in
    while !found < 0 && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Graph.iter_neighbors g v (fun u _ ->
          if !found < 0 && base.(v) <> base.(u) && partner.(v) <> u then begin
            if u = root || (partner.(u) >= 0 && parent.(partner.(u)) >= 0) then begin
              (* odd cycle: shrink the blossom *)
              let curbase = lca v u in
              Array.fill blossom 0 n false;
              mark_path v curbase u;
              mark_path u curbase v;
              for i = 0 to n - 1 do
                if blossom.(base.(i)) then begin
                  base.(i) <- curbase;
                  if not used.(i) then begin
                    used.(i) <- true;
                    Queue.push i queue
                  end
                end
              done
            end
            else if parent.(u) < 0 then begin
              parent.(u) <- v;
              if partner.(u) < 0 then found := u
              else begin
                used.(partner.(u)) <- true;
                Queue.push partner.(u) queue
              end
            end
          end)
    done;
    !found
  in
  let augment u =
    let u = ref u in
    while !u >= 0 do
      let pv = parent.(!u) in
      let next = partner.(pv) in
      partner.(!u) <- pv;
      partner.(pv) <- !u;
      u := next
    done
  in
  for v = 0 to n - 1 do
    if partner.(v) < 0 then begin
      let leaf = find_augmenting_path v in
      if leaf >= 0 then augment leaf
    end
  done;
  let ids = ref [] in
  Graph.iter_edges g (fun eid a b ->
      if partner.(a) = b && partner.(b) = a then ids := eid :: !ids);
  Bmatching.of_edge_ids g ~capacity:(Array.make n 1) !ids
