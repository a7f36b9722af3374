module Prng = Owp_util.Prng

type family =
  | Gnp of float
  | Gnm_avg_deg of float
  | Ba of int
  | Ws of int * float
  | Geometric of float
  | Torus
  | Power_law of float * int

let family_name = function
  | Gnp p -> Printf.sprintf "G(n,p=%.3g)" p
  | Gnm_avg_deg d -> Printf.sprintf "G(n,m) deg=%.1f" d
  | Ba m -> Printf.sprintf "BA(m=%d)" m
  | Ws (k, beta) -> Printf.sprintf "WS(k=%d,b=%.2f)" k beta
  | Geometric r -> Printf.sprintf "RGG(r=%.3g)" r
  | Torus -> "Torus"
  | Power_law (e, d) -> Printf.sprintf "PL(g=%.1f,d=%d)" e d

(* a family's parameters, as the generators would judge them, with
   non-finite numbers and negative radii rejected too; NaN fails every
   comparison below *)
let family_problem = function
  | Gnp p -> if p >= 0.0 && p <= 1.0 then None else Some "P must be in [0, 1]"
  | Gnm_avg_deg d ->
      if d >= 0.0 && Float.is_finite d then None else Some "D must be finite and >= 0"
  | Ba m -> if m >= 1 then None else Some "M must be >= 1"
  | Ws (k, beta) ->
      if k < 1 then Some "K must be >= 1"
      else if beta >= 0.0 && beta <= 1.0 then None
      else Some "BETA must be in [0, 1]"
  | Geometric r ->
      if r >= 0.0 && Float.is_finite r then None else Some "R must be finite and >= 0"
  | Torus -> None
  | Power_law (e, d) ->
      if not (e > 1.0 && Float.is_finite e) then Some "EXP must be finite and > 1"
      else if d < 1 then Some "MINDEG must be >= 1"
      else None

let family_syntax = "gnp:P | deg:D | ba:M | ws:K:BETA | geo:R | torus | pl:EXP:MINDEG"

let family_of_string s =
  let num f k = Option.map k (float_of_string_opt f) in
  let int i k = Option.map k (int_of_string_opt i) in
  let parsed =
    match String.split_on_char ':' (String.lowercase_ascii s) with
    | [ "gnp"; p ] -> num p (fun p -> Gnp p)
    | [ "deg"; d ] -> num d (fun d -> Gnm_avg_deg d)
    | [ "ba"; m ] -> int m (fun m -> Ba m)
    | [ "ws"; k; beta ] -> Option.join (int k (fun k -> num beta (fun b -> Ws (k, b))))
    | [ "geo"; r ] -> num r (fun r -> Geometric r)
    | [ "torus" ] -> Some Torus
    | [ "pl"; e; d ] -> Option.join (num e (fun e -> int d (fun d -> Power_law (e, d))))
    | _ -> None
  in
  match parsed with
  | None -> Error ("expected " ^ family_syntax)
  | Some f -> (
      match family_problem f with
      | None -> Ok f
      | Some why -> Error (Printf.sprintf "%s: %s" s why))

let fits family ~n =
  let need what =
    Error
      (Printf.sprintf "family %s needs %s (got n = %d)" (family_name family) what n)
  in
  match family with
  | Ba m when n <= m -> need (Printf.sprintf "n > m = %d" m)
  | Ws (k, _) when n <= 2 * k -> need (Printf.sprintf "n > 2k = %d" (2 * k))
  | Power_law (_, d) when n <= d -> need (Printf.sprintf "n > mindeg = %d" d)
  | _ -> Ok ()

let standard_families = [ Gnm_avg_deg 8.0; Ba 4; Ws (4, 0.1); Geometric 0.08 ]

type pref_model =
  | Random_prefs
  | Latency_prefs
  | Interest_prefs of int
  | Bandwidth_prefs
  | Transaction_prefs

let pref_model_name = function
  | Random_prefs -> "random"
  | Latency_prefs -> "latency"
  | Interest_prefs d -> Printf.sprintf "interest(%d)" d
  | Bandwidth_prefs -> "bandwidth"
  | Transaction_prefs -> "transactions"

let pref_model_of_string s =
  let usage = Error "expected random | latency | bandwidth | transactions | interest:D" in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "random" ] -> Ok Random_prefs
  | [ "latency" ] -> Ok Latency_prefs
  | [ "bandwidth" ] -> Ok Bandwidth_prefs
  | [ "transactions" ] -> Ok Transaction_prefs
  | [ "interest"; d ] -> (
      match int_of_string_opt d with
      | Some d when d > 0 -> Ok (Interest_prefs d)
      | Some _ -> Error (Printf.sprintf "%s: D must be >= 1" s)
      | None -> usage)
  | _ -> usage

type instance = {
  label : string;
  graph : Graph.t;
  prefs : Preference.t;
  weights : Weights.t;
  capacity : int array;
}

let build_graph rng family n =
  match family with
  | Gnp p -> (Gen.gnp rng ~n ~p, None)
  | Gnm_avg_deg d ->
      (* clamped in floats: n * D / 2 may not fit an int, and D >= n - 1
         means the complete graph *)
      let m =
        int_of_float
          (Float.min (float_of_int (n * (n - 1) / 2)) (float_of_int n *. d /. 2.0))
      in
      (Gen.gnm rng ~n ~m, None)
  | Ba m -> (Gen.barabasi_albert rng ~n ~m, None)
  | Ws (k, beta) -> (Gen.watts_strogatz rng ~n ~k ~beta, None)
  | Geometric r ->
      let g, pts = Gen.random_geometric rng ~n ~radius:r in
      (g, Some pts)
  | Torus ->
      let w = max 3 (int_of_float (sqrt (float_of_int n))) in
      (Gen.torus ~width:w ~height:w, None)
  | Power_law (exponent, min_degree) ->
      (Gen.configuration_power_law rng ~n ~exponent ~min_degree, None)

let build_prefs rng ~seed g pts pref_model quota =
  match pref_model with
  | Random_prefs -> Preference.random rng g ~quota
  | Latency_prefs ->
      let pts =
        match pts with
        | Some pts -> pts
        | None ->
            (* virtual coordinates for non-geometric families *)
            Array.init (Graph.node_count g) (fun _ ->
                (Prng.float rng 1.0, Prng.float rng 1.0))
      in
      Preference.of_metric g ~quota (Metric.latency pts)
  | Interest_prefs dims -> Preference.of_metric g ~quota (Metric.interest ~seed ~dims)
  | Bandwidth_prefs -> Preference.of_metric g ~quota (Metric.bandwidth ~seed)
  | Transaction_prefs -> Preference.of_metric g ~quota (Metric.transaction_history ~seed)

let assemble label g prefs =
  {
    label;
    graph = g;
    prefs;
    weights = Weights.of_preference prefs;
    capacity = Array.init (Graph.node_count g) (Preference.quota prefs);
  }

let make ~seed ~family ~pref_model ~n ~quota =
  let rng = Prng.create seed in
  let g, pts = build_graph rng family n in
  let q = Preference.uniform_quota g quota in
  assemble
    (Printf.sprintf "%s/%s n=%d b=%d s=%d" (family_name family)
       (pref_model_name pref_model) n quota seed)
    g
    (build_prefs rng ~seed g pts pref_model q)

let of_graph ~seed ~pref_model ~quota ~label g =
  let q = Preference.uniform_quota g quota in
  assemble label g (build_prefs (Prng.create seed) ~seed g None pref_model q)

let small_instances ~seeds ~n ~quota =
  let families = [ Gnp 0.5; Gnp 0.35; Ba 3 ] in
  let models = [ Random_prefs; Latency_prefs; Bandwidth_prefs ] in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun family ->
          List.map
            (fun pref_model -> make ~seed ~family ~pref_model ~n ~quota)
            models)
        families)
    seeds
