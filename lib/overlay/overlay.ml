type config = { quota : int -> int; metric_of : int -> Metric.t }

let homogeneous ~quota m = { quota = (fun _ -> quota); metric_of = (fun _ -> m) }

let heterogeneous ~quota metrics ~pick =
  if Array.length metrics = 0 then invalid_arg "Overlay.heterogeneous: no metrics";
  {
    quota = (fun _ -> quota);
    metric_of =
      (fun i ->
        let k = pick i in
        if k < 0 || k >= Array.length metrics then
          invalid_arg "Overlay.heterogeneous: pick out of range";
        metrics.(k));
  }

let preferences g config =
  let quota = Array.init (Graph.node_count g) config.quota in
  (* each node scores with its own metric: the score function dispatches
     on the ranking node, so preference lists stay private per peer *)
  Preference.of_scores g ~quota (fun i j -> Metric.score (config.metric_of i) i j)

(* seed 7 is the historical Pipeline.run default; keeping it preserves
   every published example's output byte for byte *)
let build ?(seed = 7) g config =
  Owp_core.Pipeline.run_config
    (Owp_core.Run_config.make ~engine:Owp_core.Run_config.Lid ~seed ())
    (preferences g config)
