let to_string g =
  let buf = Buffer.create (16 * Graph.edge_count g) in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Graph.node_count g) (Graph.edge_count g));
  Graph.iter_edges g (fun _ u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let write path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

(* the non-blank, non-comment lines, trimmed, with their 1-based
   line numbers *)
let significant_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')

let fields line = List.filter (( <> ) "") (String.split_on_char ' ' line)
let is_digits tok = tok <> "" && String.for_all (fun c -> c >= '0' && c <= '9') tok

(* a node id of an [n]-node graph *)
let node n tok =
  if not (is_digits tok) then Error (Printf.sprintf "`%s' is not a node id" tok)
  else
    match int_of_string_opt tok with
    | Some i when i < n -> Ok i
    | _ -> Error (Printf.sprintf "node %s out of range (%d nodes)" tok n)

(* [f] over the numbered lines in order; the first error stops the walk
   and is prefixed with its line number *)
let rec walk f = function
  | [] -> Ok ()
  | (k, line) :: rest -> (
      match f line with
      | Ok () -> walk f rest
      | Error e -> Error (Printf.sprintf "line %d: %s" k e))

let ( let* ) = Result.bind

(* a guard against headers that would allocate without bound *)
let max_nodes = 1 lsl 24

let header line =
  let count tok =
    match if is_digits tok then int_of_string_opt tok else None with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "`%s' is not a count" tok)
  in
  match fields line with
  | [ sn; sm ] ->
      let* n = count sn in
      let* m = count sm in
      if n > max_nodes then
        Error (Printf.sprintf "%d nodes exceed the limit of %d" n max_nodes)
      else Ok (n, m)
  | fs -> Error (Printf.sprintf "header must be `n m', found %d fields" (List.length fs))

let of_string s =
  match significant_lines s with
  | [] -> Error "empty input, expected a header `n m'"
  | (k, first) :: rest ->
      let* n, m = Result.map_error (Printf.sprintf "line %d: %s" k) (header first) in
      let b = Graph.Builder.create n in
      let edge line =
        match fields line with
        | a :: c :: _ ->
            let* u = node n a in
            let* v = node n c in
            if u = v then Error (Printf.sprintf "self-loop at node %d" u)
            else if Graph.Builder.add_edge b u v then Ok ()
            else Error (Printf.sprintf "duplicate edge %d-%d" u v)
        | fs -> Error (Printf.sprintf "expected two node ids, found %d" (List.length fs))
      in
      let* () = walk edge rest in
      if Graph.Builder.edge_count b <> m then
        Error
          (Printf.sprintf "line %d: header announces %d edges, found %d" k m
             (Graph.Builder.edge_count b))
      else Ok (Graph.Builder.build b)

let read_with parse path =
  try parse (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

let read = read_with of_string

let matching_to_string g ids =
  String.concat ""
    (Printf.sprintf "# owp matching: %d nodes, %d selected edges\n" (Graph.node_count g)
       (List.length ids)
    :: List.map
         (fun eid ->
           let u, v = Graph.edge_endpoints g eid in
           Printf.sprintf "%d %d\n" u v)
         ids)

let matching_of_string g s =
  let n = Graph.node_count g in
  let ids = ref [] in
  let edge line =
    match fields line with
    | [ a; b ] ->
        let* u = node n a in
        let* v = node n b in
        Option.fold (Graph.find_edge g u v)
          ~none:(Error (Printf.sprintf "%d-%d is not an edge of the graph" u v))
          ~some:(fun eid ->
            ids := eid :: !ids;
            Ok ())
    | fs -> Error (Printf.sprintf "expected two node ids, found %d" (List.length fs))
  in
  Result.map (fun () -> List.rev !ids) (walk edge (significant_lines s))

let read_matching g = read_with (matching_of_string g)
