(* Paired comparison of a parent and a change.

   Each side is a directory of result files (the [--json] output of
   this executable), one per run; runs were alternated parent/change,
   so the i-th files of the two sides form a pair.  For each workload
   and metric this prints both sides' median and quartiles and the share
   of pairs the change wins (ties count for neither), then a verdict:

   - gain: the change wins at least nine tenths of the pairs and the
     medians differ, in its favour, by more than the parent's own
     spread (Q3 - Q1);
   - unresolved: the parent's spread, as a share of its median, is
     wider than the metric's bound, unless every change run reads
     better than every parent run;
   - regression: the change's median is worse than the parent's by
     more than the bound;
   - within bound: otherwise.

   Bounds and directions come from BENCHMARK.json; metrics it does not
   bound are listed without a verdict. *)

type spec = { better_lower : bool; bound : float option }

type verdict = Gain | Within_bound | Unresolved | Regression

let verdict_name = function
  | Gain -> "gain"
  | Within_bound -> "within bound"
  | Unresolved -> "unresolved"
  | Regression -> "regression"

let min_pairs = 10

(* Pairs [(parent, change)]; "better" follows the metric's direction. *)
let judge spec pairs =
  let parent = List.map fst pairs and change = List.map snd pairs in
  let better a b = if spec.better_lower then a < b else a > b in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let share = float_of_int wins /. float_of_int (List.length pairs) in
  let pq1, pmed, pq3 = Quartiles.quartiles parent in
  let cmed = Quartiles.median change in
  let worse_by =
    (if spec.better_lower then cmed -. pmed else pmed -. cmed) /. Float.abs pmed
  in
  let verdict =
    match spec.bound with
    | None -> None
    | Some bound ->
        let all_better =
          List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
        in
        if share >= 0.9 && -.worse_by *. Float.abs pmed > pq3 -. pq1 then Some Gain
        else if Quartiles.relative_iqr parent > bound && not all_better then Some Unresolved
        else if worse_by > bound then Some Regression
        else Some Within_bound
  in
  (share, verdict)

let specs_of_benchmark path =
  let j = Bjson.read_file path in
  let entries key =
    List.filter_map
      (fun m ->
        match Option.bind (Bjson.member "name" m) Bjson.to_str with
        | None -> None
        | Some name ->
            let better_lower =
              match Option.bind (Bjson.member "better" m) Bjson.to_str with
              | Some "higher" -> false
              | _ -> true
            in
            let bound = Option.bind (Bjson.member "bound" m) Bjson.to_num in
            Some (name, { better_lower; bound }))
      (Option.fold ~none:[] ~some:Bjson.to_list (Bjson.member key j))
  in
  entries "end_to_end" @ entries "per_layer"

(* workload -> metric -> value, from one result file *)
let values_of_file path =
  let j = Bjson.read_file path in
  match Bjson.member "workloads" j with
  | Some (Bjson.Obj ws) ->
      List.map
        (fun (w, r) ->
          let metrics =
            match Bjson.member "metrics" r with
            | Some (Bjson.Obj ms) ->
                List.filter_map
                  (fun (name, m) ->
                    Option.map (fun v -> (name, v)) (Option.bind (Bjson.member "value" m) Bjson.to_num))
                  ms
            | _ -> []
          in
          (w, metrics))
        ws
  | _ -> failwith (path ^ ": no \"workloads\" object")

let result_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let run ~benchmark parent_dir change_dir =
  let specs = specs_of_benchmark benchmark in
  let parent = List.map values_of_file (result_files parent_dir) in
  let change = List.map values_of_file (result_files change_dir) in
  let pairs = min (List.length parent) (List.length change) in
  if pairs < min_pairs then begin
    Printf.eprintf "compare: need at least %d result files on each side, found %d and %d\n"
      min_pairs (List.length parent) (List.length change);
    2
  end
  else begin
    let parent = List.filteri (fun i _ -> i < pairs) parent
    and change = List.filteri (fun i _ -> i < pairs) change in
    let workloads = List.map fst (List.hd parent) in
    let regressions = ref 0 in
    Printf.printf "%d pairs\n%-20s %-28s %12s %12s %12s %12s %12s %12s %6s  %s\n" pairs
      "workload" "metric" "parent q1" "parent med" "parent q3" "change q1" "change med"
      "change q3" "wins" "verdict";
    List.iter
      (fun w ->
        let names = List.map fst (List.assoc w (List.hd parent)) in
        List.iter
          (fun name ->
            let get side =
              List.filter_map
                (fun run -> Option.bind (List.assoc_opt w run) (List.assoc_opt name))
                side
            in
            let ps = get parent and cs = get change in
            if List.length ps = pairs && List.length cs = pairs then begin
              let spec =
                Option.value ~default:{ better_lower = true; bound = None }
                  (List.assoc_opt name specs)
              in
              let share, verdict = judge spec (List.combine ps cs) in
              if verdict = Some Regression then incr regressions;
              let pq1, pm, pq3 = Quartiles.quartiles ps and cq1, cm, cq3 = Quartiles.quartiles cs in
              Printf.printf "%-20s %-28s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %5.0f%%  %s\n" w
                name pq1 pm pq3 cq1 cm cq3 (share *. 100.0)
                (match verdict with Some v -> verdict_name v | None -> "-")
            end)
          names)
      workloads;
    if !regressions > 0 then 1 else 0
  end
