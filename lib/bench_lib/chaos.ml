module Prng = Owp_util.Prng
module Schedule = Owp_simnet.Schedule
module Run_config = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module Stabilize = Owp_check.Stabilize

type result = { passed : bool; summary : string; certificate : string option }

let run_one cfg prefs sched =
  let cfg = { cfg with Run_config.schedule = sched } in
  let out = Pipeline.run_config cfg prefs in
  let stab = out.Pipeline.stabilize in
  let passed = List.is_empty out.Pipeline.failures in
  let summary =
    Printf.sprintf "%s -> %s%s"
      (Schedule.to_string sched)
      (if passed then "PASS" else "FAIL")
      (match stab with
      | Some c ->
          Printf.sprintf " (quiesced %b, converged %b, recovery %.2f)"
            c.Stabilize.quiesced c.Stabilize.converged c.Stabilize.recovery_time
      | None -> "")
  in
  { passed; summary; certificate = Option.map Stabilize.to_string stab }

(* ------------------------------------------------------------------ *)
(* generation                                                          *)
(* ------------------------------------------------------------------ *)

let random_links rng g k =
  let m = Graph.edge_count g in
  if m = 0 then []
  else
    List.init (max 1 k) (fun _ -> Graph.edge_endpoints g (Prng.int rng m))
    |> List.sort_uniq compare

(* every drawn float lands on a 1/64 grid: exact binary fractions with
   short decimal forms, so the shrunk reproducer printed as a
   --schedule spec (%.12g cells) re-parses to the identical schedule —
   a reproduce-with line that parsed to a slightly different schedule
   might not fail any more *)
let grid x = Float.round (x *. 64.0) /. 64.0

let generate rng ~graph ~horizon ~max_episodes =
  let n = Graph.node_count graph in
  let count = 1 + Prng.int rng (max 1 max_episodes) in
  let downed = Hashtbl.create 4 in
  let window () =
    let t0 = grid (0.5 +. Prng.float rng (0.55 *. horizon)) in
    let dur = grid (0.5 +. Prng.float rng (0.35 *. horizon)) in
    (t0, t0 +. dur)
  in
  let episode () =
    let from_, until = window () in
    let what =
      match Prng.int rng 5 with
      | 0 when n >= 2 ->
          (* one explicit block vs the implicit rest *)
          let k = 1 + Prng.int rng (max 1 (n / 2)) in
          let block = Array.to_list (Prng.sample_without_replacement rng k n) in
          Schedule.Partition [ block ]
      | 1 -> (
          match random_links rng graph (1 + Prng.int rng 2) with
          | [] -> Schedule.Burst (grid (0.6 +. Prng.float rng 0.4))
          | ls -> Schedule.Link_down ls)
      | 2 -> (
          match random_links rng graph 1 with
          | [] -> Schedule.Burst (grid (0.6 +. Prng.float rng 0.4))
          | ls ->
              Schedule.Flap
                {
                  links = ls;
                  period = grid (0.5 +. Prng.float rng 2.5);
                  duty = grid (0.3 +. Prng.float rng 0.5);
                })
      | 3 -> Schedule.Burst (grid (0.6 +. Prng.float rng 0.4))
      | _ ->
          (* down victims stay disjoint across episodes so the schedule
             validates (no overlapping crash-restart spans per node) *)
          let free =
            List.filter (fun v -> not (Hashtbl.mem downed v)) (List.init n (fun v -> v))
          in
          (match free with
          | [] -> Schedule.Burst (grid (0.6 +. Prng.float rng 0.4))
          | _ ->
              let v = List.nth free (Prng.int rng (List.length free)) in
              Hashtbl.replace downed v ();
              Schedule.Down [ v ])
    in
    { Schedule.from_; until; what }
  in
  let sched = List.init count (fun _ -> episode ()) in
  match Schedule.validate ~n sched with
  | Ok s -> s
  | Error _ ->
      (* unreachable by construction; degrade to the burst-only subset
         rather than raise inside a fuzz loop *)
      List.filter
        (fun e -> match e.Schedule.what with Schedule.Burst _ -> true | _ -> false)
        sched

(* ------------------------------------------------------------------ *)
(* shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let rec without i = function
  | [] -> []
  | _ :: tl when i = 0 -> tl
  | hd :: tl -> hd :: without (i - 1) tl

let rec replace i x = function
  | [] -> []
  | _ :: tl when i = 0 -> x :: tl
  | hd :: tl -> hd :: replace (i - 1) x tl

(* single-step reductions, most aggressive first: whole-episode drops,
   then duration halvings, then content thinning *)
let candidates sched =
  let n = List.length sched in
  let drops = List.init n (fun i -> without i sched) in
  let halvings =
    List.concat
      (List.mapi
         (fun i (e : Schedule.episode) ->
           let dur = e.Schedule.until -. e.Schedule.from_ in
           if dur <= 0.5 then []
           else
             [
               replace i
                 { e with Schedule.until = e.Schedule.from_ +. grid (dur /. 2.0) }
                 sched;
             ])
         sched)
  in
  let thinned =
    List.concat
      (List.mapi
         (fun i (e : Schedule.episode) ->
           let with_what w = replace i { e with Schedule.what = w } sched in
           match e.Schedule.what with
           | Schedule.Partition blocks ->
               (* merge: drop one block (its nodes rejoin the implicit
                  rest-block); thin: drop the last node of a block *)
               let merges =
                 if List.length blocks > 1 then
                   List.init (List.length blocks) (fun j ->
                       with_what (Schedule.Partition (without j blocks)))
                 else []
               in
               let thins =
                 List.concat
                   (List.mapi
                      (fun j b ->
                        if List.length b > 1 then
                          [
                            with_what
                              (Schedule.Partition
                                 (replace j (without (List.length b - 1) b) blocks));
                          ]
                        else [])
                      blocks)
               in
               merges @ thins
           | Schedule.Link_down links when List.length links > 1 ->
               List.init (List.length links) (fun j ->
                   with_what (Schedule.Link_down (without j links)))
           | Schedule.Flap ({ links; _ } as f) when List.length links > 1 ->
               List.init (List.length links) (fun j ->
                   with_what (Schedule.Flap { f with links = without j links }))
           | Schedule.Down nodes when List.length nodes > 1 ->
               List.init (List.length nodes) (fun j ->
                   with_what (Schedule.Down (without j nodes)))
           | _ -> [])
         sched)
  in
  drops @ halvings @ thinned

(* re-runs one shrink may spend *)
let shrink_budget = 200

let shrink ~fails sched =
  let left = ref shrink_budget in
  let still_fails s =
    (not (Schedule.is_empty s))
    && !left > 0
    &&
    begin
      decr left;
      fails s
    end
  in
  let rec fix s =
    match List.find_opt still_fails (candidates s) with
    | Some s' -> fix s'
    | None -> s
  in
  fix sched

(* ------------------------------------------------------------------ *)
(* the fuzz loop                                                       *)
(* ------------------------------------------------------------------ *)

type fuzz_report = {
  trials_run : int;
  failure : (int * Schedule.t * Schedule.t) option;
}

let fuzz ?(trials = 20) ?(max_episodes = 4) ?(horizon = 12.0) ~seed cfg prefs =
  let rng = Prng.create (seed lxor 0xC4A05) in
  let graph = Preference.graph prefs in
  let fails s = Schedule.is_empty s = false && not (run_one cfg prefs s).passed in
  let rec go i =
    if i >= trials then { trials_run = trials; failure = None }
    else begin
      let sched = generate rng ~graph ~horizon ~max_episodes in
      if fails sched then
        { trials_run = i + 1; failure = Some (i, sched, shrink ~fails sched) }
      else go (i + 1)
    end
  in
  go 0
