type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p05 : float;
  p95 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = sorted.(0);
    max = sorted.(n - 1);
    median = percentile xs 0.5;
    p05 = percentile xs 0.05;
    p95 = percentile xs 0.95;
  }
