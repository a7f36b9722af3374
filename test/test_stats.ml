module Stats = Owp_util.Stats

let feq = Alcotest.(check (float 1e-9))

(* mean and the unbiased sample deviation, read through summarize *)
let mean xs = (Stats.summarize xs).Stats.mean
let stddev xs = (Stats.summarize xs).Stats.stddev

let test_mean () =
  feq "mean" 2.5 (mean [| 1.0; 2.0; 3.0; 4.0 |]);
  feq "single" 7.0 (mean [| 7.0 |])

let test_variance () =
  feq "variance" 2.5 (stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |] ** 2.0);
  feq "constant" 0.0 (stddev [| 3.0; 3.0; 3.0 |]);
  feq "short sample" 0.0 (stddev [| 3.0 |])

let test_stddev () = feq "stddev" (sqrt 2.5) (stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  feq "p0" 10.0 (Stats.percentile xs 0.0);
  feq "p100" 40.0 (Stats.percentile xs 1.0);
  feq "median interp" 25.0 (Stats.percentile xs 0.5);
  feq "p25" 17.5 (Stats.percentile xs 0.25);
  feq "singleton" 5.0 (Stats.percentile [| 5.0 |] 0.9)

let test_percentile_unsorted_input () =
  feq "order independent" 25.0 (Stats.percentile [| 40.0; 10.0; 30.0; 20.0 |] 0.5)

let test_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let test_summarize () =
  let s = Stats.summarize [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  feq "mean" 2.5 s.Stats.mean;
  feq "min" 1.0 s.Stats.min;
  feq "max" 4.0 s.Stats.max;
  feq "median" 2.5 s.Stats.median

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize [||]))

let prop_summary_invariants =
  QCheck2.Test.make ~name:"summary invariants" ~count:300
    QCheck2.Gen.(array_size (int_range 1 100) (float_range (-50.0) 50.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.median
      && s.Stats.median <= s.Stats.max
      && s.Stats.min <= s.Stats.mean
      && s.Stats.mean <= s.Stats.max
      && s.Stats.stddev >= 0.0
      && s.Stats.p05 <= s.Stats.median
      && s.Stats.median <= s.Stats.p95)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile unsorted" `Quick test_percentile_unsorted_input;
    Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
    QCheck_alcotest.to_alcotest prop_summary_invariants;
  ]
