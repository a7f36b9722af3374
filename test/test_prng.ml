module Prng = Owp_util.Prng

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_copy_preserves_stream () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let bound = 1 + Prng.int g 100 in
    let v = Prng.int g bound in
    check "0 <= v < bound" true (v >= 0 && v < bound)
  done

let test_int_rejects_bad_bound () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_covers_values () =
  let g = Prng.create 11 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 10) <- true
  done;
  check "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let g = Prng.create 13 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 1.0 in
    check "0 <= v < 1" true (v >= 0.0 && v < 1.0)
  done

let test_float_mean () =
  let g = Prng.create 17 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g 1.0
  done;
  let mean = !acc /. float_of_int n in
  check "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_bernoulli_rate () =
  let g = Prng.create 19 in
  let hits = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_exponential_mean () =
  let g = Prng.create 23 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g 2.0
  done;
  check "mean near 2.0" true (Float.abs ((!acc /. float_of_int n) -. 2.0) < 0.1)

let test_exponential_positive () =
  let g = Prng.create 29 in
  for _ = 1 to 1000 do
    check "positive" true (Prng.exponential g 1.0 >= 0.0)
  done

let test_shuffle_is_permutation () =
  let g = Prng.create 37 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_permutation_uniform_spot () =
  let g = Prng.create 41 in
  (* position of element 0 should be roughly uniform *)
  let counts = Array.make 5 0 in
  for _ = 1 to 5000 do
    let p = Prng.permutation g 5 in
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) p;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 800 && c < 1200)) counts

let test_sample_without_replacement () =
  let g = Prng.create 43 in
  for _ = 1 to 200 do
    let k = Prng.int g 20 and n = 20 + Prng.int g 80 in
    let s = Prng.sample_without_replacement g k n in
    Alcotest.(check int) "size" k (Array.length s);
    let tbl = Hashtbl.create k in
    Array.iter
      (fun v ->
        check "range" true (v >= 0 && v < n);
        check "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.add tbl v ())
      s
  done

let test_sample_full_range () =
  let g = Prng.create 47 in
  let s = Prng.sample_without_replacement g 10 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = n is a permutation" (Array.init 10 Fun.id) sorted

let test_sample_invalid () =
  let g = Prng.create 53 in
  Alcotest.check_raises "k > n" (Invalid_argument "Prng.sample_without_replacement")
    (fun () -> ignore (Prng.sample_without_replacement g 11 10))

let test_pick () =
  let g = Prng.create 59 in
  let a = [| 5; 6; 7 |] in
  for _ = 1 to 100 do
    check "picked member" true (Array.mem (Prng.pick g a) a)
  done

(* ------------------------------------------------------------------ *)
(* golden streams: the first outputs at three seeds, pinned bit for    *)
(* bit so a change to the state layout cannot drift the sequence       *)
(* ------------------------------------------------------------------ *)

type golden = {
  seed : int;
  bits : int64 list;
  unit_floats : float list;  (** [float g 1.0] *)
  ints : int list;  (** [int g 1000] *)
  exps : float list;  (** [exponential g 1.0] *)
  copied : int64 list;  (** [copy] after 5 draws, next 4 outputs *)
}

let goldens =
  [
    {
      seed = 0;
      bits =
        [
          0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
          0x6aa594f1262d2d2cL; 0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL;
          0x6c160deed2f54c98L; 0x8920ad648fc30a3fL; 0xdb032c0ba7539731L;
          0xeb3a475a3e749a3dL; 0x1d42993fa43f2a54L; 0x11361bf526a14bb5L;
          0x1b4f07a5ab3d8e9cL; 0xa7a3257f6986db7fL; 0x7efdaa95605dfc9cL;
          0x4bde97c0a78eaab8L;
        ];
      unit_floats =
        [
          0x1.33d8be6d96ebep-1; 0x1.7edc3ef092ac8p-1; 0x1.a5f849d4933ep-4;
          0x1.aa9653c498b4ap-2; 0x1.774b5a943f085p-1; 0x1.ffdf06ebb3d79p-1;
          0x1.b05837bb4bd52p-2; 0x1.12415ac91f861p-1; 0x1.b60658174ea72p-1;
          0x1.d6748eb47ce93p-1; 0x1.d42993fa43f28p-4; 0x1.1361bf526a148p-4;
          0x1.b4f07a5ab3d88p-4; 0x1.4f464afed30dbp-1; 0x1.fbf6aa558177ep-2;
          0x1.2f7a5f029e3aap-2;
        ];
      ints =
        [
          605; 770; 192; 883; 934; 874; 86; 775; 404; 199; 461; 173; 127; 559;
          295; 182;
        ];
      exps =
        [
          0x1.d6c292be54b6fp-1; 0x1.609f42e5ef6bep+0; 0x1.bd52f79feee31p-4;
          0x1.13e5eaac3e165p-1; 0x1.520bee69b5c64p+0; 0x1.0935c5d340437p+3;
          0x1.18db359f3eec5p-1; 0x1.88c4e4d0b6fdbp-1; 0x1.ef4195623efddp+0;
          0x1.417aa018583ddp+1; 0x1.f125fe266dc12p-4; 0x1.1d137a01dda0dp-4;
          0x1.ce0c04d9acfap-4; 0x1.10507078248ddp+0; 0x1.5edee7937dbddp-1;
          0x1.67ee88c1641c2p-2;
        ];
      copied =
        [
          0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL;
          0xdb032c0ba7539731L;
        ];
    };
    {
      seed = 23;
      bits =
        [
          0x6d7bcbb9993639f7L; 0x662f3981bd7ad2d6L; 0x3b935ba301c23bc5L;
          0x36efc35d4e84c37eL; 0x13b8696713283cc0L; 0xe5bb9941a9ef0a68L;
          0xd833389026506638L; 0xab9effc65d5a83f0L; 0xded415e306dcc8fcL;
          0xecd6728bfb423d76L; 0x31c630a888bbbc09L; 0x3551c1dce0d99ebeL;
          0xc9fa5b4882d4538eL; 0xf1fb343b4579d8d2L; 0xaee63c3fd0f7b97cL;
          0x2d46b1c9bef06397L;
        ];
      unit_floats =
        [
          0x1.b5ef2ee664d8ep-2; 0x1.98bce606f5eb4p-2; 0x1.dc9add180e11cp-3;
          0x1.b77e1aea7426p-3; 0x1.3b86967132838p-4; 0x1.cb77328353de1p-1;
          0x1.b06671204ca0cp-1; 0x1.573dff8cbab5p-1; 0x1.bda82bc60db99p-1;
          0x1.d9ace517f6847p-1; 0x1.8e31854445ddcp-3; 0x1.aa8e0ee706cccp-3;
          0x1.93f4b69105a8ap-1; 0x1.e3f668768af3bp-1; 0x1.5dcc787fa1ef7p-1;
          0x1.6a358e4df783p-3;
        ];
      ints =
        [
          957; 477; 505; 455; 888; 314; 742; 324; 255; 53; 618; 991; 291; 828;
          439; 765;
        ];
      exps =
        [
          0x1.1db768a02227bp-1; 0x1.04d325ae698f1p-1; 0x1.0f41ebcf1dde4p-2;
          0x1.eeb574cc3edbap-3; 0x1.485756f002608p-4; 0x1.23700a65d2e41p+1;
          0x1.dc7efb567eb41p+0; 0x1.1c1fc8448b421p+0; 0x1.0590ebbe13fb8p+1;
          0x1.4bce41064cb3p+1; 0x1.baca08c7c4e76p-3; 0x1.de4d53cd0499p-3;
          0x1.8e47f12507a25p+0; 0x1.73cfeca300303p+1; 0x1.2644c02f91a6cp+0;
          0x1.8e999dcc5c7a6p-3;
        ];
      copied =
        [
          0xe5bb9941a9ef0a68L; 0xd833389026506638L; 0xab9effc65d5a83f0L;
          0xded415e306dcc8fcL;
        ];
    };
    {
      seed = 0xC0FFEE;
      bits =
        [
          0x120e99a6dde4a550L; 0x8f989ef97733d4b4L; 0xf0a28eb2e4fd367bL;
          0x50c29bfe8734f5d2L; 0xf763eb3e1cbe4e9bL; 0x4eca86e0293e9b6cL;
          0x534afa30daeeca16L; 0xfbcc18b345689622L; 0x1794f3f570e31d45L;
          0x4f1e8a580d4cdf33L; 0x75bb72f5de33f8a4L; 0xcda3b71566e0b14dL;
          0x603901a92988579dL; 0xb6649ff62cb3f5e5L; 0xd9a49720163b9ab3L;
          0xe1e8f07445e5314dL;
        ];
      unit_floats =
        [
          0x1.20e99a6dde4ap-4; 0x1.1f313df2ee67ap-1; 0x1.e1451d65c9fa6p-1;
          0x1.430a6ffa1cd3cp-2; 0x1.eec7d67c397c9p-1; 0x1.3b2a1b80a4fa6p-2;
          0x1.4d2be8c36bbb2p-2; 0x1.f79831668ad12p-1; 0x1.794f3f570e318p-4;
          0x1.3c7a296035336p-2; 0x1.d6edcbd778cfep-2; 0x1.9b476e2acdc16p-1;
          0x1.80e406a4a6214p-2; 0x1.6cc93fec5967ep-1; 0x1.b3492e402c773p-1;
          0x1.c3d1e0e88bca6p-1;
        ];
      ints =
        [
          540; 341; 398; 892; 214; 171; 957; 112; 265; 860; 777; 379; 807; 137;
          580; 659;
        ];
      exps =
        [
          0x1.2b9b974717b34p-4; 0x1.a56aac9460d42p-1; 0x1.681327ea59a0bp+1;
          0x1.841e5d54820dbp-2; 0x1.b236860eb952p+1; 0x1.78ad3962b0f48p-2;
          0x1.9306b258982fap-2; 0x1.07010bb12abbdp+2; 0x1.8bd5aa4141cf2p-4;
          0x1.7a932554642b5p-2; 0x1.3b626a5f0aca1p-1; 0x1.a03f9b2c4d9f9p+0;
          0x1.e2b5ba1e68005p-2; 0x1.3f16930f3b8ap+0; 0x1.e5f2f717c0a42p+0;
          0x1.120bb195f88f7p+1;
        ];
      copied =
        [
          0x4eca86e0293e9b6cL; 0x534afa30daeeca16L; 0xfbcc18b345689622L;
          0x1794f3f570e31d45L;
        ];
    };
  ]

let draws n f = List.init n (fun _ -> f ())

let bits_equal a b = List.length a = List.length b && List.for_all2 Int64.equal a b

(* floats compare by bit pattern: the stream must be identical, not close *)
let floats_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_golden_streams () =
  List.iter
    (fun gd ->
      let fresh () = Prng.create gd.seed in
      let label what = Printf.sprintf "seed %#x: %s" gd.seed what in
      let g = fresh () in
      check (label "bits64") true
        (bits_equal gd.bits (draws 16 (fun () -> Prng.bits64 g)));
      let g = fresh () in
      check (label "float g 1.0") true
        (floats_equal gd.unit_floats (draws 16 (fun () -> Prng.float g 1.0)));
      let g = fresh () in
      Alcotest.(check (list int)) (label "int g 1000") gd.ints
        (draws 16 (fun () -> Prng.int g 1000));
      let g = fresh () in
      check (label "exponential g 1.0") true
        (floats_equal gd.exps (draws 16 (fun () -> Prng.exponential g 1.0)));
      let g = fresh () in
      for _ = 1 to 5 do
        ignore (Prng.bits64 g)
      done;
      let c = Prng.copy g in
      check (label "copy after 5 draws") true
        (bits_equal gd.copied (draws 4 (fun () -> Prng.bits64 c))))
    goldens

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves stream" `Quick test_copy_preserves_stream;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int covers values" `Quick test_int_covers_values;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "permutation uniform spot" `Quick test_permutation_uniform_spot;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full range" `Quick test_sample_full_range;
    Alcotest.test_case "sample invalid" `Quick test_sample_invalid;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "golden streams at seeds 0, 23, 0xC0FFEE" `Quick
      test_golden_streams;
  ]
