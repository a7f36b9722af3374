(* ------------------------------------------------------------------ *)
(* path helpers                                                        *)
(* ------------------------------------------------------------------ *)

(* undo dune's wrapped-library mangling: "Owp_util__Event_wheel" -> two
   components, so name matching is stable whether a value is reached
   through the library alias module or directly *)
let split_mangled s =
  let parts = ref [] and start = ref 0 and n = String.length s in
  let i = ref 0 in
  while !i + 1 < n do
    if s.[!i] = '_' && s.[!i + 1] = '_' then begin
      if !i > !start then parts := String.sub s !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if !start < n then parts := String.sub s !start (n - !start) :: !parts;
  List.rev !parts

let rec path_parts = function
  | Path.Pident id -> split_mangled (Ident.name id)
  | Path.Pdot (p, s) -> path_parts p @ split_mangled s
  | Path.Papply (a, b) -> path_parts a @ path_parts b
  | Path.Pextra_ty (p, _) -> path_parts p

let stdlib_head = function "Stdlib" :: tl when tl <> [] -> tl | parts -> parts

let tail_name parts =
  match List.rev parts with
  | [] -> ""
  | [ x ] -> x
  | x :: y :: _ -> y ^ "." ^ x

(* ------------------------------------------------------------------ *)
(* the cross-unit type universe                                        *)
(* ------------------------------------------------------------------ *)

type universe = {
  float_types : (string, unit) Hashtbl.t;
  mutable_types : (string, unit) Hashtbl.t;
}

(* a declaration collected in pass 1: both its qualified keys and the
   component types its float-ness depends on *)
type decl = {
  keys : string list;
  home : string;  (** declaring module, to qualify sibling references *)
  parts : Types.type_expr list;
  mut : bool;
}

let short_module name =
  match List.rev (split_mangled name) with [] -> name | m :: _ -> m

let decl_keys ~module_name name =
  [ short_module module_name ^ "." ^ name; module_name ^ "." ^ name ]

let mutable_builtins =
  [ "ref"; "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "Atomic.t"; "Dynarray.t" ]

let float_containers = [ "list"; "option"; "array"; "Seq.t"; "Queue.t"; "ref" ]

let rec type_keys ~in_module ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      let parts = stdlib_head (path_parts p) in
      let t = tail_name parts in
      if List.length parts = 1 then [ t; short_module in_module ^ "." ^ t ] else [ t ]
  | Types.Tpoly (ty, _) -> type_keys ~in_module ty
  | _ -> []

let constr_args ty =
  match Types.get_desc ty with Types.Tconstr (_, args, _) -> args | _ -> []

let rec syntactic_float ~in_module univ depth ty =
  depth > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      Path.same p Predef.path_float
      || Path.same p Predef.path_floatarray
      || List.exists (Hashtbl.mem univ.float_types) (type_keys ~in_module ty)
      || (let t = tail_name (stdlib_head (path_parts p)) in
          List.mem t float_containers
          && List.exists (syntactic_float ~in_module univ (depth - 1)) args)
  | Types.Ttuple tys -> List.exists (syntactic_float ~in_module univ (depth - 1)) tys
  | Types.Tpoly (ty, _) -> syntactic_float ~in_module univ (depth - 1) ty
  | Types.Tlink ty | Types.Tsubst (ty, _) ->
      syntactic_float ~in_module univ (depth - 1) ty
  | _ -> false

let collect_decls module_name structure =
  let decls = ref [] in
  let on_decl (td : Typedtree.type_declaration) =
    let open Types in
    let tt = td.Typedtree.typ_type in
    let parts, mut =
      match tt.type_kind with
      | Type_record (labels, _) ->
          ( List.map (fun l -> l.ld_type) labels,
            List.exists (fun l -> l.ld_mutable = Asttypes.Mutable) labels )
      | Type_variant (constrs, _) ->
          ( List.concat_map
              (fun c ->
                match c.cd_args with
                | Cstr_tuple tys -> tys
                | Cstr_record labels -> List.map (fun l -> l.ld_type) labels)
              constrs,
            false )
      | _ -> ([], false)
    in
    let parts =
      match tt.type_manifest with Some m -> m :: parts | None -> parts
    in
    decls :=
      {
        keys = decl_keys ~module_name (Ident.name td.Typedtree.typ_id);
        home = module_name;
        parts;
        mut;
      }
      :: !decls
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      type_declaration =
        (fun sub td ->
          on_decl td;
          Tast_iterator.default_iterator.type_declaration sub td);
    }
  in
  iter.structure iter structure;
  !decls

let universe structures =
  let univ =
    { float_types = Hashtbl.create 64; mutable_types = Hashtbl.create 16 }
  in
  let decls = List.concat_map (fun (name, s) -> collect_decls name s) structures in
  List.iter
    (fun d ->
      if d.mut then List.iter (fun k -> Hashtbl.replace univ.mutable_types k ()) d.keys)
    decls;
  (* transitive closure of float-bearing-ness: a record holding a
     float-bearing record is float-bearing; three rounds bound the
     nesting depth this heuristic chases *)
  for _round = 1 to 3 do
    List.iter
      (fun d ->
        if
          (not (Hashtbl.mem univ.float_types (List.hd d.keys)))
          && List.exists
               (syntactic_float ~in_module:d.home univ 4)
               (d.parts @ List.concat_map constr_args d.parts)
        then List.iter (fun k -> Hashtbl.replace univ.float_types k ()) d.keys)
      decls
  done;
  univ

let type_has_float univ ~in_module ty = syntactic_float ~in_module univ 5 ty

let type_is_mutable univ ~in_module ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_array
      || Path.same p Predef.path_bytes
      || Path.same p Predef.path_floatarray
      || List.mem (tail_name (stdlib_head (path_parts p))) mutable_builtins
      || List.exists (Hashtbl.mem univ.mutable_types) (type_keys ~in_module ty)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* the cross-unit reference index                                      *)
(* ------------------------------------------------------------------ *)

(* every value or module path a unit reads, with local module aliases
   ([module G = Owp_graph.Graph], [let module ...]) resolved to their
   targets, keyed by each dotted prefix of two or more components *)
type readers = (string, string * string) Hashtbl.t

let rec resolve aliases = function
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some parts -> parts
      | None -> split_mangled (Ident.name id))
  | Path.Pdot (p, s) -> resolve aliases p @ split_mangled s
  | Path.Papply (f, _) | Path.Pextra_ty (f, _) -> resolve aliases f

let rec alias_target (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let readers units =
  let index = Hashtbl.create 4096 in
  List.iter
    (fun (module_name, file, structure) ->
      let aliases = Hashtbl.create 8 and seen = Hashtbl.create 256 in
      let alias id me =
        match (id, alias_target me) with
        | Some id, Some p ->
            Hashtbl.replace aliases (Ident.unique_name id) (resolve aliases p)
        | _ -> ()
      in
      let read p =
        let rec prefixes acc = function
          | [] -> ()
          | x :: tl ->
              let acc = if acc = "" then x else acc ^ "." ^ x in
              if String.contains acc '.' && not (Hashtbl.mem seen acc) then begin
                Hashtbl.replace seen acc ();
                Hashtbl.add index acc (module_name, file)
              end;
              prefixes acc tl
        in
        prefixes "" (resolve aliases p)
      in
      let it = Tast_iterator.default_iterator in
      let iter =
        {
          it with
          module_binding =
            (fun sub mb ->
              alias mb.Typedtree.mb_id mb.Typedtree.mb_expr;
              it.module_binding sub mb);
          module_expr =
            (fun sub me ->
              (match me.Typedtree.mod_desc with
              | Typedtree.Tmod_ident (p, _) -> read p
              | _ -> ());
              it.module_expr sub me);
          expr =
            (fun sub e ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) -> read p
              | Typedtree.Texp_letmodule (id, _, _, me, _) -> alias id me
              | _ -> ());
              it.expr sub e);
        }
      in
      iter.structure iter structure)
    units;
  index

let readers_of index ~module_name key =
  Hashtbl.find_all index key
  |> List.filter (fun (m, _) -> m <> module_name)
  |> List.map snd |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* the per-unit context and the rule type                              *)
(* ------------------------------------------------------------------ *)

type context = {
  module_name : string;
  file : string;
  basename : string;
  structure : Typedtree.structure;
  interface : Cmt_load.interface option;
  pure : bool;
  univ : universe;
  readers : readers Lazy.t;
}

type t = { name : string; doc : string; check : context -> Finding.t list }

(* ------------------------------------------------------------------ *)
(* traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

let iter_expressions structure f =
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          f e;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.structure iter structure

let iter_expr_within expr f =
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          f e;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.expr iter expr

let iter_value_names structure f =
  let iter =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) sub (p : k Typedtree.general_pattern) ->
          (match p.Typedtree.pat_desc with
          | Typedtree.Tpat_var (id, _) -> f (Ident.name id) p.Typedtree.pat_loc
          | Typedtree.Tpat_alias (_, id, _) -> f (Ident.name id) p.Typedtree.pat_loc
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
    }
  in
  iter.structure iter structure

let rec head_ident (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_apply (f, _) -> head_ident f
  | _ -> None

let ident_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, vd) -> Some (p, vd)
  | _ -> None

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let loc_inside inner outer =
  let fname l = l.Location.loc_start.Lexing.pos_fname in
  fname inner = fname outer
  && inner.Location.loc_start.Lexing.pos_cnum
     >= outer.Location.loc_start.Lexing.pos_cnum
  && inner.Location.loc_end.Lexing.pos_cnum <= outer.Location.loc_end.Lexing.pos_cnum

let arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None
