type t = { name : string; score : int -> int -> float }

let name m = m.name
let score m i j = m.score i j

(* SplitMix64 finalizer over a combined key: a cheap stateless hash that
   passes into (0,1) floats.  Reproducible across runs for a fixed seed. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash_float ~seed a b =
  let open Int64 in
  let k = mix64 (of_int seed) in
  let k = mix64 (logxor k (mul (of_int a) 0x9E3779B97F4A7C15L)) in
  let k = mix64 (logxor k (mul (of_int b) 0xC2B2AE3D27D4EB4FL)) in
  Int64.to_float (shift_right_logical k 11) *. (1.0 /. 9007199254740992.0)

let latency pts =
  let score i j =
    let xi, yi = pts.(i) and xj, yj = pts.(j) in
    let d = sqrt (((xi -. xj) *. (xi -. xj)) +. ((yi -. yj) *. (yi -. yj))) in
    -.d
  in
  { name = "latency"; score }

let interest ~seed ~dims =
  if dims <= 0 then invalid_arg "Metric.interest: dims must be positive";
  let profile v k = hash_float ~seed:(seed + (7919 * k)) v v in
  let score i j =
    let acc = ref 0.0 in
    for k = 0 to dims - 1 do
      acc := !acc +. (profile i k *. profile j k)
    done;
    !acc
  in
  { name = "interest"; score }

let bandwidth ~seed =
  let capacity v = hash_float ~seed v v in
  { name = "bandwidth"; score = (fun _ j -> capacity j) }

let transaction_history ~seed =
  { name = "transactions"; score = (fun i j -> hash_float ~seed i j) }

let symmetric_uniform ~seed =
  let score i j = if i <= j then hash_float ~seed i j else hash_float ~seed j i in
  { name = "symmetric-uniform"; score }

let combine name parts =
  if List.is_empty parts then invalid_arg "Metric.combine: empty combination";
  let score i j =
    List.fold_left (fun acc (coef, m) -> acc +. (coef *. m.score i j)) 0.0 parts
  in
  { name; score }
