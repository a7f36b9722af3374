(* Churn: peers join and leave while the overlay repairs itself.
   Demonstrates the incremental greedy repair (the paper's §7 future
   work, built as an ablation) against full rebuilds: satisfaction stays
   within a few percent at a fraction of the disruption.

   Run with:  dune exec examples/churn_overlay.exe *)

module Churn = Owp_core.Churn

let () =
  let rng = Owp_util.Prng.create 31 in
  let n = 300 in
  let g = Gen.gnm rng ~n ~m:(4 * n) in
  let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 3) in

  let initially_active = Array.init n (fun _ -> Owp_util.Prng.bernoulli rng 0.85) in
  let events = Churn.random_events rng ~universe:g ~initially_active ~steps:150 in

  let incr_steps =
    Churn.simulate ~prefs ~initially_active ~events ~repair:Churn.Incremental
  in
  let full_steps =
    Churn.simulate ~prefs ~initially_active ~events ~repair:Churn.Full_rebuild
  in

  Printf.printf "universe: %d peers, %d potential links; %d churn events\n\n" n
    (Graph.edge_count g) (List.length events);

  Printf.printf "%6s %8s | %12s %10s | %12s %10s\n" "event" "" "S(incr)" "changed"
    "S(rebuild)" "changed";
  List.iteri
    (fun i (a, b) ->
      if i mod 15 = 0 then begin
        let ev =
          match a.Churn.event with
          | Churn.Leave v -> Printf.sprintf "leave %d" v
          | Churn.Join v -> Printf.sprintf "join %d" v
        in
        Printf.printf "%6d %8s | %12.2f %10d | %12.2f %10d\n" i ev
          a.Churn.total_satisfaction (a.Churn.added + a.Churn.removed)
          b.Churn.total_satisfaction (b.Churn.added + b.Churn.removed)
      end)
    (List.combine incr_steps full_steps);

  let mean f steps =
    List.fold_left (fun acc s -> acc +. f s) 0.0 steps /. float_of_int (List.length steps)
  in
  let s_incr = mean (fun s -> s.Churn.total_satisfaction) incr_steps in
  let s_full = mean (fun s -> s.Churn.total_satisfaction) full_steps in
  let d_incr = mean (fun s -> float_of_int (s.Churn.added + s.Churn.removed)) incr_steps in
  let d_full = mean (fun s -> float_of_int (s.Churn.added + s.Churn.removed)) full_steps in
  Printf.printf "\nmean satisfaction : incremental %.2f vs rebuild %.2f (%.1f%% retained)\n"
    s_incr s_full (100.0 *. s_incr /. s_full);
  Printf.printf "mean disruption   : incremental %.2f vs rebuild %.2f edges/event\n" d_incr
    d_full
