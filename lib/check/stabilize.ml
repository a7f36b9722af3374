type instance = {
  weights : Weights.t;
  prefs : Preference.t option;
  capacity : int array;
  edges : int list;
  reference : int list;
  deaths : bool;
  t_heal : float;
  quiesce_at : float;
  quiesced : bool;
}

let instance ?prefs ?(deaths = false) weights ~capacity ~edges ~reference ~t_heal
    ~quiesce_at ~quiesced =
  if t_heal < 0.0 then invalid_arg "Stabilize.instance: negative t_heal";
  { weights; prefs; capacity; edges; reference; deaths; t_heal; quiesce_at; quiesced }

type certificate = {
  feasible : bool;
  violations : Violation.t list;
  quiesced : bool;
  converged : bool;
  missing : int list;
  extra : int list;
  deaths : bool;
  recovery_time : float;
  t_heal : float;
}

(* symmetric difference of two edge-id sets, duplicates collapsed *)
let diff served reference =
  let served = List.sort_uniq compare served in
  let reference = List.sort_uniq compare reference in
  let rec go missing extra s r =
    match (s, r) with
    | [], [] -> (List.rev missing, List.rev extra)
    | [], b :: r -> go (b :: missing) extra [] r
    | a :: s, [] -> go missing (a :: extra) s []
    | a :: s', b :: r' ->
        if a = b then go missing extra s' r'
        else if a < b then go missing (a :: extra) s' r
        else go (b :: missing) extra s r'
  in
  go [] [] served reference

let check inst =
  let ci =
    Checker.instance ?prefs:inst.prefs inst.weights ~capacity:inst.capacity
      ~edges:inst.edges
  in
  let feas = Checker.run ~only:[ "edge-validity"; "quota" ] ci in
  let feasible = Checker.ok feas in
  let missing, extra = diff inst.edges inst.reference in
  {
    feasible;
    violations = Checker.violations feas;
    quiesced = inst.quiesced;
    converged = missing = [] && extra = [];
    missing;
    extra;
    deaths = inst.deaths;
    recovery_time = Float.max 0.0 (inst.quiesce_at -. inst.t_heal);
    t_heal = inst.t_heal;
  }

(* under fail-stop deaths exact convergence is unachievable (a node
   half-locked toward a peer that then died has irrevocably rejected the
   proposals it deferred on that hope), so there convergence is measured
   but informational and quiescence + feasibility are the claim *)
let certified c = c.feasible && c.quiesced && (c.converged || c.deaths)

let to_string c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "self-stabilization certificate @ heal %.3f: %s\n" c.t_heal
       (if certified c then "CERTIFIED" else "VOID"));
  Buffer.add_string b (Printf.sprintf "  quiesced            %b\n" c.quiesced);
  Buffer.add_string b
    (Printf.sprintf "  converged           %b (reference missing %d, extra %d)%s\n"
       c.converged
       (List.length c.missing) (List.length c.extra)
       (if c.deaths && not c.converged then
          " [informational: fail-stop deaths relativize the reference]"
        else ""));
  Buffer.add_string b (Printf.sprintf "  feasible            %b\n" c.feasible);
  Buffer.add_string b
    (Printf.sprintf "  recovery time       %.3f after heal\n" c.recovery_time);
  let ids label = function
    | [] -> ()
    | l ->
        Buffer.add_string b
          (Printf.sprintf "  %s  [%s]\n" label
             (String.concat "; " (List.map string_of_int l)))
  in
  ids "missing edges     " c.missing;
  ids "extra edges       " c.extra;
  List.iter
    (fun v -> Buffer.add_string b ("  " ^ Violation.to_string v ^ "\n"))
    c.violations;
  Buffer.contents b
