(* Order statistics for reporting timings: the median and the two
   quartiles, computed exactly as Python's
   [statistics.quantiles(values, n=4)] (its default "exclusive"
   method), so the spreads printed here are the ones a reader gets by
   feeding the same values to Python. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quartiles.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles] with n = 4, method "exclusive": m = len + 1,
   j = i*m // 4 clamped to [1, len-1], interpolated with weight
   delta = i*m - j*4.  One sample has every quartile equal to it. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quartiles.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* the run-to-run spread a metric's bound is judged against:
   (Q3 - Q1) / median *)
let relative_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if Float.equal q2 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
