(* dead-export: every value an .mli exports has a reader outside its own
   module in lib/, bin/, benchmark/ or examples/.  Readers are counted
   over the whole build, whatever roots are linted; the lint fixtures
   do not count.  An export only its own module reads leaves the
   interface, one nobody reads is deleted, and one only tests read is
   deleted with those tests unless it is an independent reference, a
   shared test input or a test seam — an allow directive on the [val]
   line of the .mli names which. *)

let name = "dead-export"
let fixtures = "test/lint_fixtures/"
let under prefix file = String.starts_with ~prefix file

(* the exported values of a signature, with their dotted paths below
   the unit; a submodule with a signature is walked, and any other
   module (a functor, an alias) is one export *)
let rec exports prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
          [ (prefix @ [ Ident.name vd.Typedtree.val_id ], vd.Typedtree.val_loc) ]
      | Typedtree.Tsig_module { md_id = Some id; md_type; md_loc; _ } -> (
          let path = prefix @ [ Ident.name id ] in
          match md_type.Typedtree.mty_desc with
          | Typedtree.Tmty_signature sg -> exports path sg
          | _ -> [ (path, md_loc) ])
      | _ -> [])
    sg.Typedtree.sig_items

let check (ctx : Rule.context) =
  match ctx.Rule.interface with
  | None -> []
  | Some intf ->
      let unit = Rule.split_mangled ctx.Rule.module_name in
      let short = List.nth unit (List.length unit - 1) in
      List.filter_map
        (fun (path, loc) ->
          let readers =
            Rule.readers_of (Lazy.force ctx.Rule.readers)
              ~module_name:ctx.Rule.module_name
              (String.concat "." (unit @ path))
            |> List.filter (fun f -> not (under fixtures f))
          in
          let what = String.concat "." (short :: path) in
          let msg =
            match List.partition (under "test/") readers with
            | [], [] ->
                Some
                  (Printf.sprintf
                     "`%s' has no reader outside %s; drop it from the \
                      interface, or delete it"
                     what ctx.Rule.basename)
            | tests, [] ->
                Some
                  (Printf.sprintf
                     "`%s' is read only by tests (%s); delete it with them, \
                      or allow it as a reference, shared test input or test seam"
                     what
                     (String.concat ", " (List.map Filename.basename tests)))
            | _ -> None
          in
          Option.map (Finding.v ~rule:name ~file:intf.Cmt_load.ifile ~loc) msg)
        (exports [] intf.Cmt_load.signature)

let rule =
  {
    Rule.name;
    doc =
      "every value an .mli exports is read outside its own module by lib, \
       bin, benchmark or examples code; a test-only export needs an allow \
       naming its role (reference, shared test input, test seam)";
    check;
  }
