(* The seeded arrival process spec: `RATE[:MIX]`, one parser and one
   printer in the Faults/Schedule style, so a serve scenario is a
   single copyable token on the command line. *)

type t = {
  rate : float;
  join : float;
  leave : float;
  repref : float;
  query : float;
  horizon : float;
  queue : int;
  oracle : float;
  warmup : float;
}

let default =
  {
    rate = 1.0;
    join = 1.0;
    leave = 1.0;
    repref = 2.0;
    query = 6.0;
    horizon = 100.0;
    queue = 64;
    oracle = 20.0;
    warmup = 0.25;
  }

let make ?(rate = default.rate) ?(join = default.join) ?(leave = default.leave)
    ?(repref = default.repref) ?(query = default.query)
    ?(horizon = default.horizon) ?(queue = default.queue)
    ?(oracle = default.oracle) ?(warmup = default.warmup) () =
  { rate; join; leave; repref; query; horizon; queue; oracle; warmup }

(* Bounds on the work one session may ask for.  The session draws its
   whole request list before it starts, and the oracle solves LIC once
   per sample, so a spec past either bound would exhaust memory or time
   instead of failing (at rate 1e308 the arrival clock stops advancing:
   t + 1e-308 = t).  The benchmark's serve preset, E27, CI and the
   README stay orders of magnitude below both. *)
let max_expected_arrivals = 1e6
let max_oracle_samples = 1e4

let validate t =
  (* written so that NaN fails every check *)
  let pos name v =
    if v > 0.0 && Float.is_finite v then Ok ()
    else Error (Printf.sprintf "%s must be positive and finite" name)
  in
  let weight name v =
    if v >= 0.0 && Float.is_finite v then Ok ()
    else Error (Printf.sprintf "%s weight must be >= 0 and finite" name)
  in
  let ( let* ) = Result.bind in
  let* () = pos "rate" t.rate in
  let* () = weight "join" t.join in
  let* () = weight "leave" t.leave in
  let* () = weight "repref" t.repref in
  let* () = weight "query" t.query in
  let* () =
    if not (t.join +. t.leave +. t.repref +. t.query > 0.0) then
      Error "mix weights sum to zero"
    else Ok ()
  in
  let* () = pos "horizon" t.horizon in
  let* () =
    if t.rate *. t.horizon <= max_expected_arrivals then Ok ()
    else
      Error
        (Printf.sprintf "rate x horizon = %g expected arrivals, above the limit of %g"
           (t.rate *. t.horizon) max_expected_arrivals)
  in
  let* () =
    if t.queue < 1 then Error "queue must be >= 1" else Ok ()
  in
  let* () = pos "oracle" t.oracle in
  let* () =
    if t.horizon /. t.oracle <= max_oracle_samples then Ok ()
    else
      Error
        (Printf.sprintf "horizon / oracle = %g oracle samples, above the limit of %g"
           (t.horizon /. t.oracle) max_oracle_samples)
  in
  if t.warmup >= 0.0 && t.warmup < 1.0 then Ok t else Error "warmup must be in [0, 1)"

let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if s = "" then Error "empty arrival spec"
  else begin
    let rate_part, fields_part =
      match String.index_opt s ':' with
      | None -> (s, "")
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match float_of_string_opt (String.trim rate_part) with
    | None -> Error (Printf.sprintf "bad arrival rate %S" rate_part)
    | Some rate ->
        let parse_field acc item =
          Result.bind acc (fun t ->
              let fail () = Error (Printf.sprintf "bad arrival field %S" item) in
              let fl v k =
                match float_of_string_opt v with Some f -> Ok (k f) | None -> fail ()
              in
              match String.split_on_char '=' (String.trim item) with
              | [ "join"; v ] -> fl v (fun f -> { t with join = f })
              | [ "leave"; v ] -> fl v (fun f -> { t with leave = f })
              | [ "repref"; v ] -> fl v (fun f -> { t with repref = f })
              | [ "query"; v ] -> fl v (fun f -> { t with query = f })
              | [ "horizon"; v ] -> fl v (fun f -> { t with horizon = f })
              | [ "queue"; v ] -> (
                  match int_of_string_opt v with
                  | Some q -> Ok { t with queue = q }
                  | None -> fail ())
              | [ "oracle"; v ] -> fl v (fun f -> { t with oracle = f })
              | [ "warmup"; v ] -> fl v (fun f -> { t with warmup = f })
              | _ -> fail ())
        in
        let fields =
          if String.trim fields_part = "" then []
          else String.split_on_char ',' fields_part
        in
        Result.bind
          (List.fold_left parse_field (Ok { default with rate }) fields)
          validate
  end

(* shortest float rendering that round-trips through the parser *)
let fcell f = Printf.sprintf "%.12g" f

let to_string t =
  let fields =
    List.concat
      [
        (if not (Float.equal t.join default.join) then [ "join=" ^ fcell t.join ]
         else []);
        (if not (Float.equal t.leave default.leave) then
           [ "leave=" ^ fcell t.leave ]
         else []);
        (if not (Float.equal t.repref default.repref) then
           [ "repref=" ^ fcell t.repref ]
         else []);
        (if not (Float.equal t.query default.query) then
           [ "query=" ^ fcell t.query ]
         else []);
        (if not (Float.equal t.horizon default.horizon) then
           [ "horizon=" ^ fcell t.horizon ]
         else []);
        (if t.queue <> default.queue then
           [ "queue=" ^ string_of_int t.queue ]
         else []);
        (if not (Float.equal t.oracle default.oracle) then
           [ "oracle=" ^ fcell t.oracle ]
         else []);
        (if not (Float.equal t.warmup default.warmup) then
           [ "warmup=" ^ fcell t.warmup ]
         else []);
      ]
  in
  match fields with
  | [] -> fcell t.rate
  | fs -> fcell t.rate ^ ":" ^ String.concat "," fs

let pp ppf t = Format.pp_print_string ppf (to_string t)
