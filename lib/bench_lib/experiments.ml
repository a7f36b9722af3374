let all =
  [
    E00_workloads.exp;
    E01_figure1.exp;
    E02_lemma1.exp;
    E03_half_approx.exp;
    E04_equivalence.exp;
    E05_messages.exp;
    E06_theorem3.exp;
    E07_satisfaction.exp;
    E08_fixtures.exp;
    E09_privacy.exp;
    E10_churn.exp;
    E11_onetoone.exp;
    E12_ties.exp;
    E13_stretch.exp;
    E14_localsearch.exp;
    E15_robust.exp;
    E16_dynamic.exp;
    E17_floors.exp;
    E18_bipartite.exp;
    E19_anytime.exp;
    E20_coverage.exp;
    E21_reliable.exp;
    E22_byzantine.exp;
    E23_scale.exp;
    E24_composition.exp;
    E25_deadline.exp;
    E26_stabilize.exp;
    E27_serve.exp;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.Exp_common.id = id) all

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* one BENCH_<id>.json per experiment: metadata plus every table in
   Tablefmt's machine-readable form *)
let write_json dir (e : Exp_common.exp) tables =
  let path = Filename.concat dir ("BENCH_" ^ e.Exp_common.id ^ ".json") in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"id\": \"%s\",\n  \"title\": \"%s\",\n  \"paper_ref\": \"%s\",\n  \"tables\": [\n"
    (json_escape e.Exp_common.id) (json_escape e.Exp_common.title)
    (json_escape e.Exp_common.paper_ref);
  List.iteri
    (fun i t ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Owp_util.Tablefmt.to_json t))
    tables;
  output_string oc "\n  ]\n}\n";
  close_out oc

let print_exp ?json_dir ~quick out (e : Exp_common.exp) =
  Format.fprintf out "%s@." (Exp_common.header e);
  let tables, wall_ms = Exp_common.time (fun () -> e.Exp_common.run ~quick) in
  List.iter (fun t -> Format.fprintf out "%s@." (Owp_util.Tablefmt.render t)) tables;
  Format.fprintf out "-- %s wall %.2f s@." e.Exp_common.id (wall_ms /. 1000.0);
  Option.iter (fun dir -> write_json dir e tables) json_dir

let run_all ?(quick = false) ?json_dir ~out () =
  List.iter (print_exp ?json_dir ~quick out) all

let run_one ?(quick = false) ?json_dir ~out id =
  match find id with
  | None -> false
  | Some e ->
      print_exp ?json_dir ~quick out e;
      true
