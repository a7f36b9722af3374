(* hash-order: Hashtbl.iter/fold and hashtable sequences enumerate
   buckets in an order that depends on the hash function and the
   insertion history — the classic way a refactor silently breaks the
   stack's bit-identity anchors and the replayable-schedule story.
   An enumeration is fine exactly when its order cannot reach the
   result: either the consumer sorts it (detected for the direct
   List.sort wrappings) or the computation is commutative (which the
   author asserts with a suppression comment, reason attached). *)

let name = "hash-order"

let enumerators =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sorters = [ "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort" ]
let pipes = [ "|>"; "@@" ]

let head_tail_name e =
  match Rule.head_ident e with
  | None -> ""
  | Some p -> Rule.tail_name (Rule.stdlib_head (Rule.path_parts p))

let check (ctx : Rule.context) =
  let sites = ref [] and sorted_spans = ref [] in
  Rule.iter_expressions ctx.Rule.structure (fun e ->
      (match Rule.ident_of e with
      | Some (p, _) ->
          let t = Rule.tail_name (Rule.stdlib_head (Rule.path_parts p)) in
          if List.mem t enumerators then sites := (e.Typedtree.exp_loc, t) :: !sites
      | None -> ());
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply (f, args) ->
          let h = head_tail_name f in
          let arg_sorted =
            List.exists
              (fun (_, a) ->
                match a with
                | Some a -> List.mem (head_tail_name a) sorters
                | None -> false)
              args
          in
          if List.mem h sorters || (List.mem h pipes && arg_sorted) then
            sorted_spans := e.Typedtree.exp_loc :: !sorted_spans
      | _ -> ());
  List.filter_map
    (fun (loc, t) ->
      if List.exists (Rule.loc_inside loc) !sorted_spans then None
      else
        Some
          (Finding.v ~rule:name ~file:ctx.Rule.file ~loc
             (Printf.sprintf
                "`%s' enumerates in hash-bucket order; sort the result or \
                 suppress with a commutativity argument"
                t)))
    (List.rev !sites)

let rule =
  {
    Rule.name;
    doc =
      "no Hashtbl.iter/fold or hashtable-to-Seq in result-affecting code \
       unless the result is sorted in place or the site carries a reasoned \
       suppression";
    check;
  }
