(* Aggregated test runner: one alcotest section per module. *)

let () =
  Alcotest.run "owp"
    [
      ("util.prng", Test_prng.suite);
      ("util.pool", Test_pool.suite);
      ("util.heap", Test_heap.suite);
      ("util.event_wheel", Test_event_wheel.suite);
      ("util.stats", Test_stats.suite);
      ("util.tablefmt", Test_tablefmt.suite);
      ("graph.core", Test_graph.suite);
      ("graph.gen", Test_gen.suite);
      ("graph.metrics", Test_graph_metrics.suite);
      ("graph.io", Test_graph_io.suite);
      ("graph.spath", Test_spath.suite);
      ("prefs.satisfaction", Test_satisfaction.suite);
      ("prefs.metric", Test_metric.suite);
      ("prefs.preference", Test_preference.suite);
      ("prefs.weights", Test_weights.suite);
      ("simnet", Test_simnet.suite);
      ("simnet.transport", Test_transport.suite);
      ("simnet.schedule", Test_schedule.suite);
      ("matching.bmatching", Test_bmatching.suite);
      ("matching.greedy+exact", Test_greedy_exact.suite);
      ("matching.mcmf", Test_mcmf.suite);
      ("matching.onetoone", Test_onetoone.suite);
      ("matching.blossom", Test_blossom.suite);
      ("stable", Test_stable.suite);
      ("core.lic", Test_lic.suite);
      ("core.lic_indexed", Test_lic_indexed.suite);
      ("core.lid", Test_lid.suite);
      ("core.lid_dynamic", Test_lid_dynamic.suite);
      ("core.stack", Test_stack.suite);
      ("core.anytime", Test_anytime.suite);
      ("core.lid_reliable", Test_lid_reliable.suite);
      ("core.guard", Test_guard.suite);
      ("core.byzantine", Test_byzantine.suite);
      ("core.theory", Test_theory.suite);
      ("check", Test_check.suite);
      ("check.stabilize", Test_stabilize.suite);
      ("lint", Test_lint.suite);
      ("core.pipeline", Test_pipeline.suite);
      ("core.verdict", Test_verdict.suite);
      ("core.run_config", Test_run_config.suite);
      ("serve", Test_serve.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("invariants", Test_invariants.suite);
      ("overlay", Test_overlay.suite);
      ("overlay.churn", Test_churn.suite);
      ("bench.workloads", Test_workloads.suite);
    ]
