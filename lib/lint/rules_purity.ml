(* pure-core: modules tagged [(* owp-lint: pure *)] are the protocol
   core — the determinism and replay story (the interleaving explorer,
   the stack's bit-identity anchors) rests on their transitions being
   functions of explicit state only.  Purity
   here means {e externally} pure: a pure module may mutate the state
   record handed to it (LID's transition relation does exactly that),
   but it may not hold module-level mutable state, perform I/O, read
   clocks, or draw ambient randomness. *)

let name = "pure-core"

(* idents whose mere presence breaks external purity *)
let banned_heads = [ "Unix"; "Sys"; "Random"; "In_channel"; "Out_channel" ]

let banned_idents =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ]; [ "print_int" ];
    [ "print_char" ]; [ "print_float" ]; [ "prerr_string" ]; [ "prerr_endline" ];
    [ "prerr_newline" ]; [ "read_line" ]; [ "read_int" ]; [ "read_int_opt" ];
    [ "open_in" ]; [ "open_in_bin" ]; [ "open_out" ]; [ "open_out_bin" ];
    [ "stdin" ]; [ "stdout" ]; [ "stderr" ]; [ "exit" ]; [ "at_exit" ];
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ]; [ "Format"; "print_string" ];
  ]

let check (ctx : Rule.context) =
  if not ctx.Rule.pure then []
  else begin
    let out = ref [] in
    let add loc msg =
      out := Finding.v ~rule:name ~file:ctx.Rule.file ~loc msg :: !out
    in
    (* module-level mutable state: any top-level binding whose type is a
       mutable container (functions are fine — local mutation inside a
       transition is the state machine doing its job) *)
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let ty = vb.Typedtree.vb_expr.Typedtree.exp_type in
                if
                  Rule.arrow_arg ty = None
                  && Rule.type_is_mutable ctx.Rule.univ
                       ~in_module:ctx.Rule.module_name ty
                then
                  add vb.Typedtree.vb_loc
                    "module-level mutable state in a pure module")
              vbs
        | _ -> ())
      ctx.Rule.structure.Typedtree.str_items;
    (* ambient effects: I/O, clocks, randomness *)
    Rule.iter_expressions ctx.Rule.structure (fun e ->
        match Rule.ident_of e with
        | None -> ()
        | Some (p, _) ->
            let parts = Rule.stdlib_head (Rule.path_parts p) in
            let hit =
              (match parts with h :: _ :: _ -> List.mem h banned_heads | _ -> false)
              || List.mem parts banned_idents
            in
            if hit then
              add e.Typedtree.exp_loc
                (Printf.sprintf "ambient effect `%s' in a pure module"
                   (String.concat "." parts)));
    List.rev !out
  end

let rule =
  {
    Rule.name;
    doc =
      "modules tagged `owp-lint: pure' (the protocol core) must not hold \
       module-level mutable state, perform I/O, read clocks, or use ambient \
       randomness";
    check;
  }
