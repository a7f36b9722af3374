module Bmatching = Owp_matching.Bmatching

type outcome = { matching : Bmatching.t; stable : bool; rounds : int }

(* Satisfying (i, j): each saturated endpoint first drops its worst
   partner, then the pair connects.  The result is again capacity-
   feasible, and strictly improves both endpoints' view. *)
let satisfy prefs m i j =
  let drop_worst_if_saturated m x =
    if Bmatching.residual m x > 0 then m
    else
      match Blocking.worst_partner prefs m x with
      | None -> m
      | Some worst -> (
          match Graph.find_edge (Bmatching.graph m) x worst with
          | Some eid -> Bmatching.remove m eid
          | None -> assert false)
  in
  let m = drop_worst_if_saturated m i in
  let m = drop_worst_if_saturated m j in
  match Graph.find_edge (Bmatching.graph m) i j with
  | Some eid -> Bmatching.add m eid
  | None -> invalid_arg "Fixtures.satisfy: nodes are not adjacent"

let satisfy_blocking_pairs ?max_rounds prefs start =
  let g = Bmatching.graph start in
  let m_edges = Graph.edge_count g in
  let cap = Option.value max_rounds ~default:(max 1000 (50 * m_edges)) in
  let matching = ref start in
  let rounds = ref 0 in
  (* first found, deterministic *)
  let pick_blocking () =
    let found = ref None in
    (try
       Graph.iter_edges g (fun eid u v ->
           if (not (Bmatching.mem !matching eid)) && Blocking.blocks prefs !matching u v
           then begin
             found := Some (u, v);
             raise Exit
           end)
     with Exit -> ());
    !found
  in
  let stable = ref false in
  let continue = ref true in
  while !continue do
    if !rounds >= cap then continue := false
    else
      match pick_blocking () with
      | None ->
          stable := true;
          continue := false
      | Some (u, v) ->
          matching := satisfy prefs !matching u v;
          incr rounds
  done;
  { matching = !matching; stable = !stable; rounds = !rounds }

let solve ?max_rounds prefs =
  let g = Preference.graph prefs in
  let capacity = Array.init (Graph.node_count g) (Preference.quota prefs) in
  satisfy_blocking_pairs ?max_rounds prefs (Bmatching.empty g ~capacity)
