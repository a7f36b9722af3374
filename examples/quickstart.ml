(* Quickstart: build an overlay where every peer ranks its potential
   neighbours with a private metric, run the paper's distributed LID
   protocol, and inspect the quality guarantee.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. The potential-connection graph: who *could* talk to whom.
        Here, a sparse random overlay of 200 peers. *)
  let rng = Owp_util.Prng.create 2024 in
  let g = Gen.gnm rng ~n:200 ~m:800 in

  (* 2. Every peer keeps a private suitability metric and wants at most
        3 connections.  The metric is never disclosed: the protocol only
        exchanges one satisfaction scalar per potential link. *)
  let config =
    Owp_overlay.Overlay.homogeneous ~quota:3 (Metric.transaction_history ~seed:7)
  in

  (* 3. Run LID (Algorithm 1 of the paper) over a simulated asynchronous
        network. *)
  let outcome = Owp_overlay.Overlay.build ~seed:42 g config in

  Printf.printf "peers                : %d\n" (Graph.node_count g);
  Printf.printf "potential links      : %d\n" (Graph.edge_count g);
  Printf.printf "established links    : %d\n"
    (Owp_matching.Bmatching.size outcome.Owp_core.Pipeline.matching);
  Printf.printf "total satisfaction   : %.2f\n"
    outcome.Owp_core.Pipeline.total_satisfaction;
  Printf.printf "mean satisfaction    : %.4f (in [0,1])\n"
    outcome.Owp_core.Pipeline.mean_satisfaction;
  (match outcome.Owp_core.Pipeline.messages with
  | Some m -> Printf.printf "protocol messages    : %d (%.1f per peer)\n" m
                (float_of_int m /. 200.0)
  | None -> ());
  (match outcome.Owp_core.Pipeline.guarantee with
  | Some b ->
      Printf.printf "proven guarantee     : >= %.3f of the optimal satisfaction (Thm 3)\n" b
  | None -> ());

  (* 4. The same matching, computed centrally (Algorithm 2), is
        guaranteed to be identical (Lemmas 4/6). *)
  let prefs = Owp_overlay.Overlay.preferences g config in
  let lic =
    Owp_core.Pipeline.run_config
      (Owp_core.Run_config.make ~engine:Owp_core.Run_config.Lic_indexed ~seed:7 ())
      prefs
  in
  Printf.printf "LID == LIC           : %b\n"
    (Owp_matching.Bmatching.equal outcome.Owp_core.Pipeline.matching
       lic.Owp_core.Pipeline.matching)
