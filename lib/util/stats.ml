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

let histogram xs ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let lo = Array.fold_left Float.min xs.(0) xs and hi = Array.fold_left Float.max xs.(0) xs in
    let span = if Float.equal hi lo then 1.0 else hi -. lo in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let b = int_of_float (float_of_int bins *. (x -. lo) /. span) in
        let b = if b >= bins then bins - 1 else b in
        counts.(b) <- counts.(b) + 1)
      xs;
    Array.init bins (fun b ->
        let w = span /. float_of_int bins in
        (lo +. (float_of_int b *. w), lo +. (float_of_int (b + 1) *. w), counts.(b)))
  end
