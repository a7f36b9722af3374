(* tuple-hash-key: a generic Stdlib.Hashtbl keyed by a tuple pays, on
   every lookup, for allocating the key tuple and for caml_hash walking
   it, and the structural compare runs again on every probe.  On the
   simulator's per-frame path (lib/simnet, lib/core) and in the
   per-node passes over graphs, preferences and matchings (lib/graph,
   lib/prefs, lib/matching) that can cost more than the work the lookup
   guards.  Pack the key into an int
   (src * nodes + dst) and probe an open-addressed table, index
   per-node slots, or suppress with the reason the table stays off the
   per-frame path. *)

let name = "tuple-hash-key"
let functions = [ "find"; "find_opt"; "mem"; "replace"; "add"; "remove" ]

(* the per-frame and per-node libraries, plus simnet-named units (the
   fixtures) *)
let in_scope (ctx : Rule.context) =
  List.exists (Rule.contains ctx.Rule.file)
    [ "lib/simnet/"; "lib/core/"; "lib/graph/"; "lib/prefs/"; "lib/matching/" ]
  || Rule.contains ctx.Rule.basename "simnet"

let is_tuple ty = match Types.get_desc ty with Types.Ttuple _ -> true | _ -> false

(* names of the unit's own tuple abbreviations ([type link = int * int]):
   the environments a .cmt stores are summaries, so [Ctype.expand_head]
   cannot see through them *)
let local_tuples (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_type (_, decls) ->
          List.filter_map
            (fun (d : Typedtree.type_declaration) ->
              match d.Typedtree.typ_type.Types.type_manifest with
              | Some m when is_tuple m -> Some (Ident.name d.Typedtree.typ_id)
              | _ -> None)
            decls
      | _ -> [])
    str.Typedtree.str_items

(* the key type of a [('k, 'v) Hashtbl.t] is a tuple *)
let tuple_key tuples tbl =
  match Types.get_desc tbl with
  | Types.Tconstr (_, [ k; _ ], _) -> (
      is_tuple k
      ||
      match Types.get_desc k with
      | Types.Tconstr (Path.Pident id, [], _) -> List.mem (Ident.name id) tuples
      | _ -> false)
  | _ -> false

let check (ctx : Rule.context) =
  if not (in_scope ctx) then []
  else begin
    let out = ref [] and tuples = local_tuples ctx.Rule.structure in
    Rule.iter_expressions ctx.Rule.structure (fun e ->
        match Rule.ident_of e with
        | None -> ()
        | Some (p, _) -> (
            match Rule.stdlib_head (Rule.path_parts p) with
            | [ "Hashtbl"; fn ] when List.mem fn functions -> (
                match Rule.arrow_arg e.Typedtree.exp_type with
                | Some tbl when tuple_key tuples tbl ->
                    out :=
                      Finding.v ~rule:name ~file:ctx.Rule.file ~loc:e.Typedtree.exp_loc
                        (Printf.sprintf
                           "`Hashtbl.%s' on a tuple key allocates the tuple and \
                            hashes it structurally on every call; pack the key \
                            into an int or index per-node slots"
                           fn)
                      :: !out
                | _ -> ())
            | _ -> ()));
    List.rev !out
  end

let rule =
  {
    Rule.name;
    doc =
      "no generic Hashtbl find/find_opt/mem/replace/add/remove on a tuple \
       key in lib/simnet, lib/core, lib/graph, lib/prefs and lib/matching: \
       each call allocates the tuple and hashes it structurally";
    check;
  }
