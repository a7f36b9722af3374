module Bmatching = Owp_matching.Bmatching

let lightest_selected w m u =
  let g = Bmatching.graph m in
  let best = ref (-1) in
  Graph.iter_neighbors g u (fun _ eid ->
      if Bmatching.mem m eid then
        if !best < 0 || Weights.heavier w !best eid then best := eid);
  !best

let weighted_blocking_pair w m =
  let g = Bmatching.graph m in
  let found = ref None in
  (try
     Graph.iter_edges g (fun eid u v ->
         if not (Bmatching.mem m eid) then begin
           let beats x =
             if Bmatching.residual m x > 0 then Bmatching.capacity m x > 0
             else begin
               let light = lightest_selected w m x in
               light >= 0 && Weights.heavier w eid light
             end
           in
           if beats u && beats v then begin
             found := Some (u, v);
             raise Exit
           end
         end)
   with Exit -> ());
  !found

let is_greedy_stable w m = weighted_blocking_pair w m = None

let lemma1_bound ~bmax =
  if bmax <= 0 then invalid_arg "Theory.lemma1_bound: bmax must be positive";
  0.5 *. (1.0 +. (1.0 /. float_of_int bmax))

let theorem3_bound ~bmax =
  if bmax <= 0 then invalid_arg "Theory.theorem3_bound: bmax must be positive";
  0.25 *. (1.0 +. (1.0 /. float_of_int bmax))
