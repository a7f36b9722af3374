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

let significant_lines s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some line)

let of_string s =
  match significant_lines s with
  | [] -> failwith "Graph_io.of_string: empty input"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ sn; sm ] ->
          let n = int_of_string sn and m = int_of_string sm in
          let b = Graph.Builder.create n in
          List.iter
            (fun line ->
              match String.split_on_char ' ' line with
              | u :: v :: _ ->
                  ignore (Graph.Builder.add_edge b (int_of_string u) (int_of_string v))
              | _ -> failwith "Graph_io.of_string: malformed edge line")
            rest;
          let g = Graph.Builder.build b in
          if Graph.edge_count g <> m then
            failwith "Graph_io.of_string: edge count mismatch with header";
          g
      | _ -> failwith "Graph_io.of_string: malformed header")

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))

let weights_to_string g w =
  if Array.length w <> Graph.edge_count g then
    invalid_arg "Graph_io.weights_to_string: weight arity mismatch";
  let buf = Buffer.create (24 * Graph.edge_count g) in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Graph.node_count g) (Graph.edge_count g));
  Graph.iter_edges g (fun eid u v ->
      Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" u v w.(eid)));
  Buffer.contents buf

let weights_of_string s =
  match significant_lines s with
  | [] -> failwith "Graph_io.weights_of_string: empty input"
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ sn; sm ] ->
          let n = int_of_string sn and m = int_of_string sm in
          let b = Graph.Builder.create n in
          let triples =
            List.map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ u; v; w ] -> (int_of_string u, int_of_string v, float_of_string w)
                | _ -> failwith "Graph_io.weights_of_string: malformed line")
              rest
          in
          List.iter (fun (u, v, _) -> ignore (Graph.Builder.add_edge b u v)) triples;
          let g = Graph.Builder.build b in
          if Graph.edge_count g <> m then
            failwith "Graph_io.weights_of_string: edge count mismatch";
          let w = Array.make m 0.0 in
          List.iter
            (fun (u, v, x) ->
              match Graph.find_edge g u v with
              | Some eid -> w.(eid) <- x
              | None -> assert false)
            triples;
          (g, w)
      | _ -> failwith "Graph_io.weights_of_string: malformed header")

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
  let node tok =
    if not (String.for_all (fun c -> c >= '0' && c <= '9') tok) then
      Error (Printf.sprintf "`%s' is not a node id" tok)
    else
      match int_of_string_opt tok with
      | Some i when i < n -> Ok i
      | _ -> Error (Printf.sprintf "node %s out of range (%d nodes)" tok n)
  in
  let edge line =
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | [ a; b ] -> (
        match (node a, node b) with
        | Ok u, Ok v ->
            Option.to_result (Graph.find_edge g u v)
              ~none:(Printf.sprintf "%d-%d is not an edge of the graph" u v)
        | (Error e, _ | _, Error e) -> Error e)
    | fields -> Error (Printf.sprintf "expected two node ids, found %d" (List.length fields))
  in
  let rec go k acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (k + 1) acc rest
        else
          match edge line with
          | Ok eid -> go (k + 1) (eid :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" k e))
  in
  go 1 [] (String.split_on_char '\n' s)

let read_matching g path =
  try matching_of_string g (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e
