(* The 256-bit xoshiro state lives unboxed in 32 bytes: s0..s3 at byte
   offsets 0, 8, 16 and 24, native endianness.  Reading and writing it
   through Bytes.get_int64_ne/set_int64_ne keeps every intermediate in a
   register; four [mutable int64] fields would box each store. *)
type t = Bytes.t

(* SplitMix64: used only to expand a user seed into the 256-bit xoshiro
   state, as recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let g = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne g (8 * i) (splitmix_next state)
  done;
  g

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* one xoshiro256** step; inlined into every draw below so the state
   words and the result stay unboxed *)
let[@inline] next g =
  let open Int64 in
  let s0 = Bytes.get_int64_ne g 0 and s1 = Bytes.get_int64_ne g 8 in
  let s2 = Bytes.get_int64_ne g 16 and s3 = Bytes.get_int64_ne g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne g 0 s0;
  Bytes.set_int64_ne g 8 s1;
  Bytes.set_int64_ne g 16 (logxor s2 t);
  Bytes.set_int64_ne g 24 (rotl s3 45);
  result

let bits64 g = next g

let split g =
  let seed = Int64.to_int (bits64 g) in
  create (seed lxor 0x5851F42D)

(* Lemire-style rejection-free-enough bounded int: take the high bits and
   use rejection sampling to remove modulo bias. *)
let rec draw_below g bound =
  (* 62 usable bits: OCaml ints are 63-bit, so taking 62 keeps the
     value non-negative after Int64.to_int *)
  let r = Int64.to_int (Int64.shift_right_logical (next g) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw_below g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask the top bits *)
    Int64.to_int (Int64.logand (next g) (Int64.of_int (bound - 1)))
  else draw_below g bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let[@inline] float g bound =
  (* 53 random bits into [0,1) then scale *)
  let r = Int64.to_float (Int64.shift_right_logical (next g) 11) in
  r *. (1.0 /. 9007199254740992.0) *. bound

let bool g = Int64.compare (Int64.logand (next g) 1L) 0L <> 0

let bernoulli g p = float g 1.0 < p

let exponential g mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float g 1.0 in
  -.mean *. log u

let gaussian g ~mu ~sigma =
  let u1 = 1.0 -. float g 1.0 and u2 = float g 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place g a;
  a

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  if 2 * k >= n then Array.sub (permutation g n) 0 k
  else begin
    (* hash-set based rejection sampling: fast when k << n *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int g n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))
