type instance = {
  weights : Weights.t;
  prefs : Preference.t option;
  capacity : int array;
  edges : int list;
  budget : float;
  reference : int list option;
}

let instance ?prefs ?reference weights ~capacity ~budget ~edges =
  if budget <= 0.0 then invalid_arg "Anytime.instance: budget must be positive";
  { weights; prefs; capacity; edges; budget; reference }

type certificate = {
  feasible : bool;
  violations : Violation.t list;
  blocking_pairs : int;
  matched_edges : int;
  weight : float;
  satisfaction : float option;
  weight_retained : float option;
  satisfaction_retained : float option;
  prefix_of_reference : bool option;
  budget : float;
}

let total_weight w edges = List.fold_left (fun acc e -> acc +. Weights.weight w e) 0.0 edges

let total_satisfaction prefs g edges =
  let n = Graph.node_count g in
  let conns = Array.make n [] in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      conns.(u) <- v :: conns.(u);
      conns.(v) <- u :: conns.(v))
    edges;
  Preference.total_satisfaction prefs conns

(* retained ratio with the 0/0 = 1 convention: an empty reference
   means there was nothing to retain *)
let ratio part whole = if whole <= 0.0 then 1.0 else part /. whole

let check inst =
  let g = Weights.graph inst.weights in
  let ci =
    Checker.instance ?prefs:inst.prefs inst.weights ~capacity:inst.capacity
      ~edges:inst.edges
  in
  (* feasibility is the hard claim at a cutoff; blocking pairs are the
     degradation being measured, so they are counted, not failed on.
     Satisfaction is only defined for feasible matchings (rank lists
     reject overfull nodes), so the quantitative fields stay [None] on
     an infeasible one instead of raising — the certificate is already
     void through [feasible]. *)
  let feas = Checker.run ~only:[ "edge-validity"; "quota" ] ci in
  let feasible = Checker.ok feas in
  let blocking =
    if feasible then Checker.violation_count (Checker.run ~only:[ "blocking-pair" ] ci)
    else 0
  in
  let weight = total_weight inst.weights inst.edges in
  let satisfaction =
    if feasible then Option.map (fun p -> total_satisfaction p g inst.edges) inst.prefs
    else None
  in
  let weight_retained =
    Option.map
      (fun r -> ratio weight (total_weight inst.weights r))
      inst.reference
  in
  let satisfaction_retained =
    match (inst.prefs, inst.reference) with
    | Some p, Some r when feasible ->
        Some (ratio (total_satisfaction p g inst.edges) (total_satisfaction p g r))
    | _ -> None
  in
  let prefix_of_reference =
    Option.map
      (fun r ->
        let m = Graph.edge_count g in
        let in_ref = Array.make (max m 1) false in
        List.iter (fun e -> if e >= 0 && e < m then in_ref.(e) <- true) r;
        List.for_all (fun e -> e >= 0 && e < m && in_ref.(e)) inst.edges)
      inst.reference
  in
  {
    feasible;
    violations = Checker.violations feas;
    blocking_pairs = blocking;
    matched_edges = List.length inst.edges;
    weight;
    satisfaction;
    weight_retained;
    satisfaction_retained;
    prefix_of_reference;
    budget = inst.budget;
  }

let certified c = c.feasible && c.prefix_of_reference <> Some false

let to_string c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "anytime certificate @ budget %.3f: %s\n" c.budget
       (if certified c then "CERTIFIED" else "VOID"));
  Buffer.add_string b
    (Printf.sprintf "  served edges        %d (weight %.4f)\n" c.matched_edges
       c.weight);
  Option.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "  satisfaction        %.4f\n" s))
    c.satisfaction;
  Buffer.add_string b
    (Printf.sprintf "  feasible            %b\n" c.feasible);
  Buffer.add_string b
    (Printf.sprintf "  blocking pairs      %d (residual, shrinking in budget)\n"
       c.blocking_pairs);
  Option.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "  weight retained     %.1f%%\n" (100.0 *. r)))
    c.weight_retained;
  Option.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  satisf. retained    %.1f%%\n" (100.0 *. r)))
    c.satisfaction_retained;
  Option.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "  subset of full run  %s\n" (if p then "yes" else "NO")))
    c.prefix_of_reference;
  List.iter
    (fun v -> Buffer.add_string b ("  " ^ Violation.to_string v ^ "\n"))
    c.violations;
  Buffer.contents b
