(* generic-compare: a Stdlib comparison whose argument type is still a
   type variable compiles to a C call into the runtime's structural
   compare (caml_lessthan, caml_equal, caml_compare...), boxing float
   arguments on the way in.  At a concrete type the compiler emits a
   register compare instead.  In the simulator's substrate (lib/util,
   lib/simnet, lib/core) every event pays for such a call, and in the
   per-node passes over graphs, preferences and matchings (lib/graph,
   lib/prefs, lib/matching) every adjacency entry does: an
   unannotated key compare such as [let le a s b t = a < b || ...] is
   inferred at ['a -> 'b -> 'a -> 'b -> bool], and the event wheel's
   sort calls one about a dozen times per event.  float-compare cannot
   see it, since a bare type variable carries no float.  The rule flags
   the operator wherever its
   instantiated argument type is an unresolved variable; annotate the
   type (or use Int/Float/String comparators) to fix it. *)

let name = "generic-compare"
let operators = [ "="; "<>"; "<"; "<="; ">"; ">="; "compare"; "min"; "max" ]

(* the hot-path libraries, plus simnet-named units (the fixtures) *)
let in_scope (ctx : Rule.context) =
  List.exists (Rule.contains ctx.Rule.file)
    [ "lib/util/"; "lib/simnet/"; "lib/core/"; "lib/graph/"; "lib/prefs/"; "lib/matching/" ]
  || Rule.contains ctx.Rule.basename "simnet"

let is_type_variable ty =
  match Types.get_desc ty with Types.Tvar _ | Types.Tunivar _ -> true | _ -> false

let check (ctx : Rule.context) =
  if not (in_scope ctx) then []
  else begin
    let out = ref [] in
    Rule.iter_expressions ctx.Rule.structure (fun e ->
        match Rule.ident_of e with
        | None -> ()
        | Some (p, _) -> (
            match Rule.path_parts p with
            | [ "Stdlib"; op ] when List.mem op operators -> (
                match Rule.arrow_arg e.Typedtree.exp_type with
                | Some arg when is_type_variable arg ->
                    out :=
                      Finding.v ~rule:name ~file:ctx.Rule.file
                        ~loc:e.Typedtree.exp_loc
                        (Printf.sprintf
                           "`%s' at an unresolved type variable is a runtime \
                            call to the structural compare; annotate the \
                            argument type or use a typed comparator"
                           op)
                      :: !out
                | _ -> ())
            | _ -> ()));
    List.rev !out
  end

let rule =
  {
    Rule.name;
    doc =
      "no Stdlib =/<>/</<=/>/>=/compare/min/max at an unresolved type \
       variable in lib/util, lib/simnet, lib/core, lib/graph, lib/prefs \
       and lib/matching: each is a runtime call to the structural compare";
    check;
  }
