(* File-sharing swarm: seeds with high upload capacity vs leechers.
   Every peer ranks neighbours by available bandwidth (a global,
   acyclic metric) but quotas differ: seeds accept many connections,
   leechers few.  Shows per-class satisfaction and compares LID with the
   stable-fixtures dynamics, which does converge here (acyclic case of
   Gai et al.) yet yields lower total satisfaction.

   Run with:  dune exec examples/file_sharing.exe *)

module BM = Owp_matching.Bmatching

let () =
  let rng = Owp_util.Prng.create 5 in
  let n = 300 in
  let g = Gen.gnm rng ~n ~m:(6 * n) in

  (* 10% seeds (quota 12), 90% leechers (quota 3) *)
  let is_seed = Array.init n (fun _ -> Owp_util.Prng.bernoulli rng 0.1) in
  let quota = Array.init n (fun v -> if is_seed.(v) then 12 else 3) in
  let metric = Metric.bandwidth ~seed:17 in
  let prefs = Preference.of_metric g ~quota metric in
  let w = Weights.of_preference prefs in
  let capacity = Array.init n (Preference.quota prefs) in

  let lid = Owp_core.Stack.run ~seed:6 w ~capacity in
  let m = lid.Owp_core.Stack.matching in
  Printf.printf "swarm: %d peers (%d seeds), %d potential links\n" n
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 is_seed)
    (Graph.edge_count g);
  Printf.printf "LID: %d links, %d msgs, terminated=%b\n" (BM.size m)
    (lid.Owp_core.Stack.prop_count + lid.Owp_core.Stack.rej_count)
    lid.Owp_core.Stack.all_terminated;
  List.iter
    (fun v -> Printf.printf "  !! %s\n" (Owp_check.Violation.to_string v))
    lid.Owp_core.Stack.quiescence;
  print_newline ();

  let class_stats label keep =
    let sats = ref [] and filled = ref 0 and total = ref 0 in
    for v = 0 to n - 1 do
      if keep v && Preference.list_len prefs v > 0 then begin
        incr total;
        if BM.residual m v = 0 then incr filled;
        sats := BM.satisfaction prefs m v :: !sats
      end
    done;
    let s = Owp_util.Stats.summarize (Array.of_list !sats) in
    Printf.printf "%-10s peers=%3d  mean S=%.4f  median S=%.4f  quota filled=%.0f%%\n"
      label !total s.Owp_util.Stats.mean s.Owp_util.Stats.median
      (100.0 *. float_of_int !filled /. float_of_int !total)
  in
  class_stats "seeds" (fun v -> is_seed.(v));
  class_stats "leechers" (fun v -> not is_seed.(v));

  (* the bandwidth metric is acyclic, so blocking-pair dynamics
     converges to the stable fixtures solution; compare satisfaction *)
  let dyn = Owp_stable.Fixtures.solve prefs in
  let total m =
    Array.fold_left ( +. ) 0.0 (Owp_core.Pipeline.satisfaction_profile prefs m)
  in
  let s_lid = total m and s_dyn = total dyn.Owp_stable.Fixtures.matching in
  Printf.printf "\nstable dynamics converged: %b (rounds=%d)\n"
    dyn.Owp_stable.Fixtures.stable dyn.Owp_stable.Fixtures.rounds;
  Printf.printf "total satisfaction: LID=%.2f  stable-dynamics=%.2f  (ratio %.3f)\n" s_lid
    s_dyn
    (if s_dyn = 0.0 then 1.0 else s_lid /. s_dyn);
  Printf.printf "blocking pairs left by LID: %d (satisfaction, not stability, is the objective)\n"
    (Owp_stable.Blocking.count_blocking_pairs prefs m)
