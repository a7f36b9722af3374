(* The two repo-structural rules: the single-state-machine property the
   stack refactor established, and the layer-signature conformance the
   counter table relies on. *)

(* ------------------------------------------------------------------ *)
(* state-machine                                                       *)
(* ------------------------------------------------------------------ *)

(* The PROP/REJ transition state of Algorithm 1 — the u_set/a_set/k_set
   triple — is defined in lib/core/lid.ml and nowhere else; every other
   driver is middleware over Lid.init/Lid.deliver.  A second definition
   anywhere (a record label, a binding, a parameter) is a second state
   machine growing back.  This replaces the textual grep that test_stack
   used to ship: the typedtree sees definitions, not mentions, so
   referencing Lid's state through its API stays legal. *)

let sm_name = "state-machine"
let sm_owner = "lid.ml"
let transition_state = [ "u_set"; "a_set"; "k_set" ]

let sm_check (ctx : Rule.context) =
  if ctx.Rule.basename = sm_owner then []
  else begin
    let out = ref [] in
    let add loc what kind =
      out :=
        Finding.v ~rule:sm_name ~file:ctx.Rule.file ~loc
          (Printf.sprintf
             "%s `%s' re-defines LID transition state outside %s; drive the \
              machine through Lid.init/Lid.deliver instead"
             kind what sm_owner)
        :: !out
    in
    (* record labels and inline-record constructor arguments *)
    let on_decl (td : Typedtree.type_declaration) =
      let open Types in
      let labels =
        match td.Typedtree.typ_type.type_kind with
        | Type_record (labels, _) -> labels
        | Type_variant (constrs, _) ->
            List.concat_map
              (fun c ->
                match c.cd_args with Cstr_record labels -> labels | _ -> [])
              constrs
        | _ -> []
      in
      List.iter
        (fun l ->
          let n = Ident.name l.ld_id in
          if List.mem n transition_state then add l.ld_loc n "record label")
        labels
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
    iter.structure iter ctx.Rule.structure;
    (* bindings and parameters *)
    Rule.iter_value_names ctx.Rule.structure (fun n loc ->
        if List.mem n transition_state then add loc n "binding");
    List.sort Finding.order !out
  end

let state_machine =
  {
    Rule.name = sm_name;
    doc =
      "the LID transition state (u_set/a_set/k_set) is defined only in \
       lib/core/lid.ml; drivers compose middleware, they do not grow a \
       second machine";
    check = sm_check;
  }

(* ------------------------------------------------------------------ *)
(* layer-conformance                                                   *)
(* ------------------------------------------------------------------ *)

(* Every Stack middleware layer implements the full on_send/on_deliver/
   counters signature and contributes a real row to the per-layer
   counter table.  The type checker enforces the field types; what it
   cannot enforce is construction discipline: a layer built by record
   update ({ base with ... }) silently inherits another layer's
   callbacks, and a counters function that is literally (fun () -> [])
   registers no row, so the layer becomes invisible in every report and
   the conformance tests downstream of the table stop seeing it. *)

let lc_name = "layer-conformance"

let is_layer_shape (fields : (Types.label_description * 'a) array) =
  let names =
    Array.to_list (Array.map (fun (ld, _) -> ld.Types.lbl_name) fields)
  in
  List.mem "on_send" names && List.mem "on_deliver" names

let rec function_body (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> function_body c.Typedtree.c_rhs
  | _ -> e

let is_empty_list (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_construct (_, cd, []) -> cd.Types.cstr_name = "[]"
  | _ -> false

(* One builder per layer, in lib/core and stack-named units: a
   top-level binding may construct at most one layer-shaped record.
   Layers then live in separate bindings, so OCaml scoping lets one
   layer reach another only through what its builder is passed — no
   shared refs captured inside one big closure.  The finding sits on
   the second layer record of the offending binding. *)
let one_builder_per_layer (ctx : Rule.context) =
  if
    not
      (Rule.contains ctx.Rule.file "lib/core/"
      || Rule.contains ctx.Rule.basename "stack")
  then []
  else
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.filter_map
              (fun (vb : Typedtree.value_binding) ->
                let layers = ref [] in
                Rule.iter_expr_within vb.Typedtree.vb_expr (fun e ->
                    match e.Typedtree.exp_desc with
                    | Typedtree.Texp_record { fields; _ } when is_layer_shape fields ->
                        layers := e.Typedtree.exp_loc :: !layers
                    | _ -> ());
                match List.rev !layers with
                | _ :: second :: _ ->
                    Some
                      (Finding.v ~rule:lc_name ~file:ctx.Rule.file ~loc:second
                         (Printf.sprintf
                            "one top-level binding builds %d layer records; give \
                             each layer its own builder"
                            (List.length !layers)))
                | _ -> None)
              vbs
        | _ -> [])
      ctx.Rule.structure.Typedtree.str_items

let lc_check (ctx : Rule.context) =
  let out = ref [] in
  let add loc msg =
    out := Finding.v ~rule:lc_name ~file:ctx.Rule.file ~loc msg :: !out
  in
  Rule.iter_expressions ctx.Rule.structure (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_record { fields; extended_expression; _ }
        when is_layer_shape fields ->
          if extended_expression <> None then
            add e.Typedtree.exp_loc
              "layer built by record update; spell out every field of the \
               layer signature explicitly"
          else
            Array.iter
              (fun ((ld : Types.label_description), def) ->
                match def with
                | Typedtree.Kept _ ->
                    add e.Typedtree.exp_loc
                      (Printf.sprintf
                         "layer field `%s' inherited instead of implemented"
                         ld.Types.lbl_name)
                | Typedtree.Overridden (_, fe) ->
                    let n = ld.Types.lbl_name in
                    let counters_field =
                      n = "counters"
                      || String.length n > 9
                         && String.sub n (String.length n - 8) 8 = "counters"
                    in
                    if counters_field && is_empty_list (function_body fe) then
                      add fe.Typedtree.exp_loc
                        (Printf.sprintf
                           "layer registers no counter row (`%s' is \
                            constantly []); every layer reports one row"
                           n))
              fields
      | _ -> ());
  List.sort Finding.order (!out @ one_builder_per_layer ctx)

let layer_conformance =
  {
    Rule.name = lc_name;
    doc =
      "every Stack layer spells out its full \
       signature (no record-update construction) and registers a counter \
       row; in the stack, each top-level binding builds at most one layer";
    check = lc_check;
  }
