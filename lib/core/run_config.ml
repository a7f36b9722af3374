module Faults = Owp_simnet.Faults
module Schedule = Owp_simnet.Schedule

type engine = Lic_indexed | Lid | Lid_reliable | Dynamics

type t = {
  engine : engine;
  seed : int;
  faults : Faults.t;
  schedule : Schedule.t;
  reliable : bool;
  byzantine : string option;
  guard : bool;
  sim_shards : int;
  check : bool;
  deadline : float option;
  max_rounds : int option;
}

let default =
  {
    engine = Lid;
    seed = 42;
    faults = Faults.none;
    schedule = Schedule.empty;
    reliable = false;
    byzantine = None;
    guard = false;
    sim_shards = 1;
    check = false;
    deadline = None;
    max_rounds = None;
  }

let make ?(engine = default.engine) ?(seed = default.seed) ?(faults = default.faults)
    ?(schedule = Schedule.empty) ?(reliable = false) ?byzantine ?(guard = false)
    ?(check = false) ?deadline ?max_rounds () =
  {
    engine;
    seed;
    faults;
    schedule;
    reliable;
    byzantine;
    guard;
    sim_shards = 1;
    check;
    deadline;
    max_rounds;
  }

let budgeted t = Option.is_some t.deadline || Option.is_some t.max_rounds

let engine_name = function
  | Lic_indexed -> "lic"
  | Lid -> "lid"
  | Lid_reliable -> "lid-reliable"
  | Dynamics -> "dynamics"

let all_engines = [ Lic_indexed; Lid; Lid_reliable; Dynamics ]

let engine_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun e -> engine_name e = s) all_engines with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown engine %S (expected %s)" s
           (String.concat " | " (List.map engine_name all_engines)))

(* The engines that execute through the layered Stack.run loop — the
   only ones for which faults, the reliable transport, adversaries and
   the guard are meaningful. *)
let lid_family = function Lid | Lid_reliable -> true | Lic_indexed | Dynamics -> false

let validate t =
  let ( let* ) = Result.bind in
  let* _ = Faults.validate t.faults in
  let* _ = Schedule.validate t.schedule in
  let* () =
    if (not (Schedule.is_empty t.schedule)) && not (lid_family t.engine) then
      Error
        (Printf.sprintf
           "a fault schedule (--schedule) scripts network weather over a \
            simulated run and needs a LID-family engine (lid or \
            lid-reliable); engine %s does not simulate a network"
           (engine_name t.engine))
    else Ok ()
  in
  let* () =
    match t.byzantine with
    | None -> Ok ()
    | Some spec ->
        if not (lid_family t.engine) then
          Error
            (Printf.sprintf
               "an adversary spec needs a LID-family engine (lid or \
                lid-reliable); engine %s has no peers to subvert"
               (engine_name t.engine))
        else begin
          match Owp_simnet.Adversary.parse_spec spec with
          | _ -> Ok ()
          | exception Invalid_argument msg -> Error msg
        end
  in
  let* () =
    if t.guard && t.byzantine = None then
      Error
        "--guard vets adversarial traffic; without --byzantine MODEL:FRAC there is \
         nothing to guard against (drop --guard, or add an adversary spec)"
    else Ok ()
  in
  let* () =
    if Faults.any t.faults && not (lid_family t.engine) then
      Error
        (Printf.sprintf
           "faults (%s) need a LID-family engine (lid or \
            lid-reliable); engine %s does not simulate a network"
           (Faults.to_string t.faults) (engine_name t.engine))
    else Ok ()
  in
  let* () =
    if t.reliable && not (lid_family t.engine) then
      Error
        (Printf.sprintf
           "--reliable enables the ARQ transport under a LID-family engine; engine \
            %s does not send messages"
           (engine_name t.engine))
    else Ok ()
  in
  let* () =
    if t.sim_shards <> 1 then
      Error
        (Printf.sprintf "sim_shards %d: the simulator has one event store, so it must be 1"
           t.sim_shards)
    else Ok ()
  in
  let* () =
    match (t.deadline, t.max_rounds) with
    | Some _, Some _ ->
        Error
          "--deadline and --max-rounds are two spellings of one budget (a round \
           budget is converted to virtual time via the delay model) — give \
           exactly one"
    | Some d, None when not (d > 0.0 && Float.is_finite d) ->
        Error
          (Printf.sprintf
             "--deadline %g: the budget is a positive, finite virtual-time \
              horizon (protocol rounds take ~1.5 time units under the default \
              delay model)"
             d)
    | None, Some k when k <= 0 ->
        Error
          (Printf.sprintf
             "--max-rounds %d: the budget is a positive number of propose-answer \
              rounds"
             k)
    | _ -> Ok ()
  in
  let* () =
    if budgeted t && not (lid_family t.engine) then
      Error
        (Printf.sprintf
           "an anytime budget (--deadline/--max-rounds) bounds a simulated \
            message-passing run and needs a LID-family engine (lid or \
            lid-reliable); engine %s computes its matching in one step"
           (engine_name t.engine))
    else Ok ()
  in
  Ok t

let to_string t =
  String.concat " "
    (List.concat
       [
         [ "engine=" ^ engine_name t.engine; Printf.sprintf "seed=%d" t.seed ];
         (if Faults.equal t.faults Faults.none then []
          else [ "faults=" ^ Faults.to_string t.faults ]);
         (if Schedule.is_empty t.schedule then []
          else [ "schedule=" ^ Schedule.to_string t.schedule ]);
         (if t.reliable then [ "reliable" ] else []);
         (match t.byzantine with
         | Some spec -> [ "byzantine=" ^ spec ]
         | None -> []);
         (if t.guard then [ "guard" ] else []);
         (if t.check then [ "check" ] else []);
         (match t.deadline with
         | Some d -> [ Printf.sprintf "deadline=%g" d ]
         | None -> []);
         (match t.max_rounds with
         | Some k -> [ Printf.sprintf "max-rounds=%d" k ]
         | None -> []);
       ])

let pp ppf t = Format.pp_print_string ppf (to_string t)
