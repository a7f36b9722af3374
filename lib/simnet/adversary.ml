type model =
  | Weight_liar of float
  | Equivocator
  | Flooder of int
  | Replayer
  | State_violator

let default_liar_inflation = 0.5
let default_flooder_sweeps = 2

let default_of_name s =
  match String.lowercase_ascii s with
  | "liar" | "weight-liar" -> Some (Weight_liar default_liar_inflation)
  | "equivocator" | "equiv" -> Some Equivocator
  | "flooder" | "flood" -> Some (Flooder default_flooder_sweeps)
  | "replayer" | "replay" -> Some Replayer
  | "violator" | "state-violator" -> Some State_violator
  | _ -> None

let name = function
  | Weight_liar _ -> "liar"
  | Equivocator -> "equivocator"
  | Flooder _ -> "flooder"
  | Replayer -> "replayer"
  | State_violator -> "violator"

let all_defaults =
  [
    Weight_liar default_liar_inflation;
    Equivocator;
    Flooder default_flooder_sweeps;
    Replayer;
    State_violator;
  ]

let parse_one item =
  match String.split_on_char ':' (String.trim item) with
  | [ m; f ] -> begin
      match (default_of_name m, float_of_string_opt (String.trim f)) with
      | Some model, Some frac when frac > 0.0 && frac <= 1.0 -> (model, frac)
      | Some _, Some _ ->
          invalid_arg
            (Printf.sprintf "Adversary.parse_spec: fraction %s outside (0, 1]" f)
      | Some _, None ->
          invalid_arg (Printf.sprintf "Adversary.parse_spec: bad fraction %S" f)
      | None, _ ->
          invalid_arg
            (Printf.sprintf
               "Adversary.parse_spec: unknown model %S (expected \
                liar|equivocator|flooder|replayer|violator)"
               m)
    end
  | _ ->
      invalid_arg
        (Printf.sprintf "Adversary.parse_spec: expected MODEL:FRAC, got %S" item)

let parse_spec s =
  match String.split_on_char ',' s with
  | [] | [ "" ] -> invalid_arg "Adversary.parse_spec: empty spec"
  | items -> List.map parse_one items

(* the one rounding rule: round (frac * n) nodes, at least one *)
let share ~n frac = max 1 (int_of_float (Float.round (frac *. float_of_int n)))
let count ~n specs = List.fold_left (fun acc (_, frac) -> acc + share ~n frac) 0 specs

let assign rng ~n specs =
  if n <= 0 then invalid_arg "Adversary.assign: empty network";
  let total = count ~n specs in
  if total >= n then
    invalid_arg
      (Printf.sprintf
         "Adversary.assign: %d adversaries leave no correct node among %d" total n);
  let order = Owp_util.Prng.sample_without_replacement rng total n in
  let roles = Array.make n None in
  let next = ref 0 in
  List.iter
    (fun (m, frac) ->
      for _ = 1 to share ~n frac do
        roles.(order.(!next)) <- Some m;
        incr next
      done)
    specs;
  roles

type 'm behaviour = {
  on_init : send:(dst:int -> 'm -> unit) -> unit;
  on_receive : src:int -> 'm -> send:(dst:int -> 'm -> unit) -> unit;
}

let silent =
  { on_init = (fun ~send:_ -> ()); on_receive = (fun ~src:_ _ ~send:_ -> ()) }
