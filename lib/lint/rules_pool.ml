(* pool-capture: closures handed to Owp_util.Pool run concurrently on
   OCaml 5 domains, and the pool's bit-identity guarantee holds only
   because tasks share no mutable state.  This is a lightweight race
   lint, not a proof: it inspects closure literals passed to
   Pool.map/map_list/run and flags writes (:=, incr, Hashtbl/Array/
   Bytes/Buffer mutation, field assignment) whose target is defined
   outside the closure.  Locally created state is fine — each task may
   scribble on its own accumulator — and Atomic operations are the
   sanctioned cross-task channel. *)

let name = "pool-capture"
let pool_entries = [ "Pool.map"; "Pool.map_list"; "Pool.run" ]

let mutators =
  [
    [ ":=" ]; [ "incr" ]; [ "decr" ];
    [ "Hashtbl"; "add" ]; [ "Hashtbl"; "replace" ]; [ "Hashtbl"; "remove" ];
    [ "Hashtbl"; "reset" ]; [ "Hashtbl"; "clear" ];
    [ "Array"; "set" ]; [ "Array"; "unsafe_set" ]; [ "Array"; "fill" ];
    [ "Array"; "blit" ]; [ "Bytes"; "set" ]; [ "Bytes"; "unsafe_set" ];
    [ "Buffer"; "add_string" ]; [ "Buffer"; "add_char" ]; [ "Buffer"; "clear" ];
    [ "Buffer"; "reset" ]; [ "Queue"; "push" ]; [ "Queue"; "pop" ];
    [ "Queue"; "add" ]; [ "Queue"; "take" ]; [ "Stack"; "push" ];
    [ "Stack"; "pop" ];
  ]

(* An event wheel is single-owner mutable state: one captured into a
   Pool task races exactly like a shared Hashtbl, so add/pop/pop_into
   on a wheel defined outside the closure is flagged.  Matched by tail (Module.fn) so the alias path Owp_util.Event_wheel
   and in-library Event_wheel both hit. *)
let wheel_mutators =
  [ "Event_wheel.add"; "Event_wheel.pop"; "Event_wheel.pop_into" ]

(* the write target is safe when it is an identifier whose definition
   site lies inside the closure (a local accumulator or a parameter) *)
let target_is_local closure_loc (arg : Typedtree.expression option) =
  match arg with
  | Some a -> (
      match Rule.ident_of a with
      | Some (_, vd) -> Rule.loc_inside vd.Types.val_loc closure_loc
      | None -> false)
  | None -> false

let check (ctx : Rule.context) =
  if ctx.Rule.basename = "pool.ml" then []
  else begin
    let out = ref [] in
    let add loc what =
      out :=
        Finding.v ~rule:name ~file:ctx.Rule.file ~loc
          (Printf.sprintf
             "closure passed to Owp_util.Pool mutates `%s' defined outside \
              the task; route cross-task state through Atomic or return it"
             what)
        :: !out
    in
    let scan_closure (closure : Typedtree.expression) =
      let cloc = closure.Typedtree.exp_loc in
      Rule.iter_expr_within closure (fun e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_setfield (target, _, _, _) -> (
              match Rule.ident_of target with
              | Some (p, vd) when not (Rule.loc_inside vd.Types.val_loc cloc) ->
                  add e.Typedtree.exp_loc
                    (String.concat "." (Rule.stdlib_head (Rule.path_parts p)))
              | Some _ -> ()
              | None -> ())
          | Typedtree.Texp_apply (f, args) -> (
              match Rule.head_ident f with
              | Some p
                when (let parts = Rule.stdlib_head (Rule.path_parts p) in
                      List.mem parts mutators
                      || List.mem (Rule.tail_name parts) wheel_mutators) ->
                  let first_positional =
                    List.find_map
                      (fun (lbl, a) ->
                        match lbl with Asttypes.Nolabel -> a | _ -> None)
                      args
                  in
                  if not (target_is_local cloc first_positional) then
                    add e.Typedtree.exp_loc
                      (match first_positional with
                      | Some a -> (
                          match Rule.ident_of a with
                          | Some (tp, _) ->
                              String.concat "."
                                (Rule.stdlib_head (Rule.path_parts tp))
                          | None -> "shared state")
                      | None -> "shared state")
              | _ -> ())
          | _ -> ())
    in
    Rule.iter_expressions ctx.Rule.structure (fun e ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_apply (f, args) -> (
            match Rule.head_ident f with
            | Some p
              when List.mem
                     (Rule.tail_name (Rule.stdlib_head (Rule.path_parts p)))
                     pool_entries ->
                List.iter
                  (fun (_, a) ->
                    match a with
                    | Some (a : Typedtree.expression) -> (
                        match a.Typedtree.exp_desc with
                        | Typedtree.Texp_function _ -> scan_closure a
                        | Typedtree.Texp_array elts -> List.iter scan_closure elts
                        | _ -> ())
                    | None -> ())
                  args
            | _ -> ())
        | _ -> ());
    List.rev !out
  end

let rule =
  {
    Rule.name;
    doc =
      "closures passed to Owp_util.Pool must not mutate state captured from \
       outside the task unless it is routed through Atomic (lightweight race \
       lint)";
    check;
  }
