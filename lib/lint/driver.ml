type result = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  files : int;
  rules : string list;
}

let select only =
  match only with
  | None -> Ok Registry.all
  | Some names -> (
      let missing = List.filter (fun n -> Registry.find n = None) names in
      match missing with
      | [] -> Ok (List.filter (fun r -> List.mem r.Rule.name names) Registry.all)
      | m ->
          Error
            (Printf.sprintf "unknown rule%s: %s (try `owp lint --list')"
               (if List.length m > 1 then "s" else "")
               (String.concat ", " m)))

let run ?only ~roots () =
  match select only with
  | Error _ as e -> e
  | Ok rules -> (
      match (Cmt_load.scan roots, Cmt_load.unbuilt roots) with
      | [], _ ->
          Error
            (Printf.sprintf
               "no .cmt files under %s; run `dune build @check' first"
               (String.concat ", " roots))
      | _, cmti :: _ ->
          Error
            (Printf.sprintf
               "%s has no .cmt beside it; run `dune build @check' first" cmti)
      | units, [] ->
          let univ =
            Rule.universe
              (List.map
                 (fun (u : Cmt_load.unit_info) -> (u.module_name, u.structure))
                 units)
          in
          let readers =
            lazy
              (Rule.readers
                 (List.map
                    (fun (u : Cmt_load.unit_info) ->
                      (u.module_name, u.file, u.structure))
                    (Cmt_load.scan (Cmt_load.build_root roots))))
          in
          let load = function Some src -> Suppress.load src | None -> Suppress.empty in
          let findings = ref [] and suppressed = ref [] in
          List.iter
            (fun (u : Cmt_load.unit_info) ->
              let sup = load u.Cmt_load.source in
              (* findings anchored in the .mli answer to its directives *)
              let sup_of =
                match u.Cmt_load.interface with
                | Some i ->
                    let isup = load i.Cmt_load.isource in
                    fun file -> if file = i.Cmt_load.ifile then isup else sup
                | None -> fun _ -> sup
              in
              let ctx =
                {
                  Rule.module_name = u.Cmt_load.module_name;
                  file = u.Cmt_load.file;
                  basename = u.Cmt_load.basename;
                  structure = u.Cmt_load.structure;
                  interface = u.Cmt_load.interface;
                  pure = Suppress.pure sup;
                  univ;
                  readers;
                }
              in
              List.iter
                (fun r ->
                  List.iter
                    (fun (f : Finding.t) ->
                      if
                        Suppress.active (sup_of f.Finding.file) ~rule:f.Finding.rule
                          ~line:f.Finding.line
                      then suppressed := f :: !suppressed
                      else findings := f :: !findings)
                    (r.Rule.check ctx))
                rules)
            units;
          Ok
            {
              findings = List.sort Finding.order !findings;
              suppressed = List.sort Finding.order !suppressed;
              files = List.length units;
              rules = List.map (fun r -> r.Rule.name) rules;
            })

let pp_human ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  if r.findings <> [] then Format.fprintf ppf "@.";
  Format.fprintf ppf "%d finding%s (%d suppressed), %d file%s, %d rule%s@."
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.suppressed) r.files
    (if r.files = 1 then "" else "s")
    (List.length r.rules)
    (if List.length r.rules = 1 then "" else "s")

let to_json r =
  let b = Buffer.create 1024 in
  let list_of f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"findings\": %s,\n" (list_of Finding.to_json r.findings));
  Buffer.add_string b
    (Printf.sprintf "  \"suppressed\": %s,\n"
       (list_of Finding.to_json r.suppressed));
  Buffer.add_string b (Printf.sprintf "  \"files\": %d,\n" r.files);
  Buffer.add_string b
    (Printf.sprintf "  \"rules\": %s\n" (list_of Finding.json_string r.rules));
  Buffer.add_string b "}";
  Buffer.contents b
