type kind =
  | Partition of int list list
  | Link_down of (int * int) list
  | Flap of { links : (int * int) list; period : float; duty : float }
  | Burst of float
  | Down of int list

type episode = { from_ : float; until : float; what : kind }
type t = episode list

let empty = []
let is_empty = function [] -> true | _ -> false

let covers e ~at = e.from_ <= at && at < e.until

let overlaps t ~from_ ~until =
  List.exists (fun e -> e.from_ < until && from_ < e.until) t

let end_time t = List.fold_left (fun acc e -> Float.max acc e.until) 0.0 t

(* a flapping link is down for the duty-cycle prefix of every period,
   phase-locked to the episode start *)
let flap_down e ~at ~period ~duty =
  let phase = Float.rem (at -. e.from_) period in
  phase < duty *. period

let same_link (u, v) ~src ~dst =
  (Int.equal u src && Int.equal v dst) || (Int.equal u dst && Int.equal v src)

(* partition block index of a node; unlisted nodes share block -1 *)
let block_of blocks node =
  let rec go i = function
    | [] -> -1
    | b :: rest -> if List.mem node b then i else go (i + 1) rest
  in
  go 0 blocks

let cuts e ~at ~src ~dst =
  covers e ~at
  &&
  match e.what with
  | Partition blocks -> block_of blocks src <> block_of blocks dst
  | Link_down links -> List.exists (same_link ~src ~dst) links
  | Flap { links; period; duty } ->
      List.exists (same_link ~src ~dst) links && flap_down e ~at ~period ~duty
  | Burst _ | Down _ -> false

let outage t ~at ~src ~dst =
  if List.exists (cuts ~at ~src ~dst) t then 1.0
  else
    List.fold_left
      (fun acc e ->
        match e.what with
        | Burst p when covers e ~at -> Float.max acc p
        | _ -> acc)
      0.0 t

let down_spans t =
  List.concat_map
    (fun e ->
      match e.what with
      | Down nodes -> List.map (fun v -> (v, e.from_, e.until)) nodes
      | _ -> [])
    t

(* ------------------------------------------------------------------ *)
(* validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate ?n t =
  let ( let* ) = Result.bind in
  let node v =
    match n with
    | Some n when v < 0 || v >= n ->
        Error (Printf.sprintf "node %d out of range [0, %d)" v n)
    | _ when v < 0 -> Error (Printf.sprintf "node %d negative" v)
    | _ -> Ok ()
  in
  let nodes vs = List.fold_left (fun acc v -> Result.bind acc (fun () -> node v)) (Ok ()) vs in
  let links ls =
    List.fold_left
      (fun acc (u, v) ->
        let* () = acc in
        if u = v then Error (Printf.sprintf "link %d.%d joins a node to itself" u v)
        else nodes [ u; v ])
      (Ok ()) ls
  in
  let episode e =
    (* written so that NaN fails every check; a finite end after the
       start makes the start finite too *)
    let* () =
      if not (e.from_ >= 0.0) then Error "episode start must be non-negative"
      else if not (e.until > e.from_) then Error "episode must end after it starts"
      else if not (Float.is_finite e.until) then Error "episode end must be finite"
      else Ok ()
    in
    match e.what with
    | Partition [] -> Error "partition needs at least one block"
    | Partition blocks ->
        if List.exists (fun b -> b = []) blocks then Error "empty partition block"
        else nodes (List.concat blocks)
    | Link_down [] -> Error "link episode needs at least one link"
    | Link_down ls -> links ls
    | Flap { links = []; _ } -> Error "flap episode needs at least one link"
    | Flap { links = ls; period; duty } ->
        let* () = links ls in
        if not (period > 0.0 && Float.is_finite period) then
          Error "flap period must be positive and finite"
        else if not (duty > 0.0 && duty <= 1.0) then Error "flap duty must be in (0, 1]"
        else Ok ()
    | Burst p ->
        if p > 0.0 && p <= 1.0 then Ok () else Error "burst probability must be in (0, 1]"
    | Down [] -> Error "down episode needs at least one node"
    | Down vs -> nodes vs
  in
  let* () = List.fold_left (fun acc e -> Result.bind acc (fun () -> episode e)) (Ok ()) t in
  (* a node may only be downed once: overlapping crash-restart spans for
     the same node have no sane desugaring into crash plans *)
  let spans = down_spans t in
  let rec overlap : (int * float * float) list -> _ = function
    | [] -> Ok ()
    | (v, a0, a1) :: rest ->
        if
          List.exists
            (fun (w, b0, b1) -> v = w && a0 < b1 && b0 < a1)
            rest
        then Error (Printf.sprintf "node %d downed by overlapping episodes" v)
        else overlap rest
  in
  let* () = overlap spans in
  Ok t

(* ------------------------------------------------------------------ *)
(* spec syntax                                                         *)
(* ------------------------------------------------------------------ *)

let fcell f = Printf.sprintf "%.12g" f

let link_str (u, v) = Printf.sprintf "%d.%d" u v
let group_str vs = String.concat "." (List.map string_of_int vs)

let episode_to_string e =
  let head =
    match e.what with
    | Partition blocks ->
        "part:" ^ String.concat "|" (List.map group_str blocks)
    | Link_down ls -> "link:" ^ String.concat "|" (List.map link_str ls)
    | Flap { links; period; duty } ->
        Printf.sprintf "flap:%s:%s:%s"
          (String.concat "|" (List.map link_str links))
          (fcell period) (fcell duty)
    | Burst p -> "burst:" ^ fcell p
    | Down vs -> "down:" ^ group_str vs
  in
  Printf.sprintf "%s@%s-%s" head (fcell e.from_) (fcell e.until)

let to_string t =
  match t with
  | [] -> "none"
  | es -> String.concat ";" (List.map episode_to_string es)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* [t0-t1] where either time may itself contain '-' (an exponent):
   split at the first '-' that leaves two parseable floats *)
let parse_range s =
  let len = String.length s in
  let rec go i =
    if i >= len then None
    else if s.[i] = '-' then
      match
        ( float_of_string_opt (String.sub s 0 i),
          float_of_string_opt (String.sub s (i + 1) (len - i - 1)) )
      with
      | Some a, Some b -> Some (a, b)
      | _ -> go (i + 1)
    else go (i + 1)
  in
  go 0

let parse_int s = int_of_string_opt (String.trim s)

let parse_group s =
  let parts = String.split_on_char '.' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest -> ( match parse_int p with Some v -> go (v :: acc) rest | None -> None)
  in
  if s = "" then None else go [] parts

let parse_links s =
  let pairs = String.split_on_char '|' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest -> (
        match parse_group p with
        | Some [ u; v ] -> go ((u, v) :: acc) rest
        | _ -> None)
  in
  go [] pairs

let parse_blocks s =
  let blocks = String.split_on_char '|' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | b :: rest -> ( match parse_group b with Some vs -> go (vs :: acc) rest | None -> None)
  in
  go [] blocks

let parse_episode item =
  let fail () = Error (Printf.sprintf "bad schedule episode %S" item) in
  match String.split_on_char '@' (String.trim item) with
  | [ head; range ] -> (
      match parse_range range with
      | None -> fail ()
      | Some (from_, until) -> (
          let ep what = Ok { from_; until; what } in
          match String.split_on_char ':' head with
          | [ "part"; blocks ] -> (
              match parse_blocks blocks with Some bs -> ep (Partition bs) | None -> fail ())
          | [ "link"; links ] -> (
              match parse_links links with Some ls -> ep (Link_down ls) | None -> fail ())
          | [ "flap"; links; period; duty ] -> (
              match
                (parse_links links, float_of_string_opt period, float_of_string_opt duty)
              with
              | Some ls, Some p, Some d -> ep (Flap { links = ls; period = p; duty = d })
              | _ -> fail ())
          | [ "burst"; p ] -> (
              match float_of_string_opt p with Some p -> ep (Burst p) | None -> fail ())
          | [ "down"; nodes ] -> (
              match parse_group nodes with Some vs -> ep (Down vs) | None -> fail ())
          | _ -> fail ()))
  | _ -> fail ()

let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if s = "" || s = "none" then Ok empty
  else
    let items = String.split_on_char ';' s |> List.filter (fun i -> String.trim i <> "") in
    let rec go acc = function
      | [] -> validate (List.rev acc)
      | item :: rest -> (
          match parse_episode item with
          | Ok e -> go (e :: acc) rest
          | Error _ as e -> e)
    in
    go [] items
