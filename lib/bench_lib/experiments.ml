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
    E13_stretch.exp;
    E14_localsearch.exp;
    E16_dynamic.exp;
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

(* the claims as the experiment's last table, "claim | holds" *)
let claims_table (e : Exp_common.exp) claims =
  let module Tbl = Owp_util.Tablefmt in
  let t = Tbl.create ~title:(e.id ^ ": claims") [ ("claim", Tbl.Left); ("holds", Tbl.Left) ] in
  Tbl.add_rows t (List.map (fun (claim, holds) -> [ claim; Exp_common.yn holds ]) claims);
  t

let print_exp ?json_dir ~quick out (e : Exp_common.exp) =
  Format.fprintf out "%s@." (Exp_common.header e);
  let (tables, claims), wall_ms = Exp_common.time (fun () -> e.Exp_common.run ~quick) in
  let tables = tables @ [ claims_table e claims ] in
  List.iter (fun t -> Format.fprintf out "%s@." (Owp_util.Tablefmt.render t)) tables;
  Format.fprintf out "-- %s wall %.2f s@." e.Exp_common.id (wall_ms /. 1000.0);
  Option.iter (fun dir -> write_json dir e tables) json_dir;
  List.filter_map (fun (claim, holds) -> if holds then None else Some (e.id, claim)) claims

let run ?(quick = false) ?json_dir ~out exps =
  List.concat_map (print_exp ?json_dir ~quick out) exps
