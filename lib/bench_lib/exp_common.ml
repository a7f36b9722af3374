module Tbl = Owp_util.Tablefmt

type exp = {
  id : string;
  title : string;
  paper_ref : string;
  run : quick:bool -> Tbl.t list;
}

let total_satisfaction prefs m =
  let total = ref 0.0 in
  for i = 0 to Graph.node_count (Preference.graph prefs) - 1 do
    total := !total +. Owp_matching.Bmatching.satisfaction prefs m i
  done;
  !total

let run_lid (inst : Workloads.instance) =
  Owp_core.Stack.run ~seed:(Hashtbl.hash inst.Workloads.label) inst.Workloads.weights
    ~capacity:inst.Workloads.capacity

let run_lic (inst : Workloads.instance) =
  Owp_core.Lic.run inst.Workloads.weights ~capacity:inst.Workloads.capacity

let run_greedy (inst : Workloads.instance) =
  Owp_matching.Greedy.run inst.Workloads.weights ~capacity:inst.Workloads.capacity

let yn b = if b then "yes" else "NO"

let quiescence_cell (r : Owp_core.Stack.report) =
  if r.Owp_core.Stack.all_terminated then "yes"
  else
    let stragglers =
      List.filter_map
        (fun v ->
          match v.Owp_check.Violation.subject with
          | Owp_check.Violation.Node i -> Some (string_of_int i)
          | _ -> None)
        r.Owp_core.Stack.quiescence
    in
    let shown =
      match stragglers with
      | a :: b :: c :: d :: e :: f :: _ :: _ -> [ a; b; c; d; e; f; "..." ]
      | l -> l
    in
    Printf.sprintf "NO (%d stuck: %s)" (List.length stragglers)
      (String.concat "," shown)

(* --jobs: how many domains the experiment sweeps may use.  A ref, not
   a parameter, so the two dozen existing experiment signatures stay
   unchanged; the harness entry points set it once before running. *)
let jobs = ref 1

let trial_map f xs = Owp_util.Pool.map_list ~jobs:!jobs f xs

let time f = Owp_util.Clock.time f

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs

let header e = Printf.sprintf "== %s: %s  [%s] ==" e.id e.title e.paper_ref
