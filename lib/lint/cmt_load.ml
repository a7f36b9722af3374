type interface = {
  ifile : string;
  isource : string option;
  signature : Typedtree.signature;
}

type unit_info = {
  module_name : string;
  file : string;
  basename : string;
  source : string option;
  structure : Typedtree.structure;
  interface : interface option;
}

(* deterministic recursive walk: readdir order is unspecified, so sort *)
let rec walk suffix dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk suffix path acc
          else if Filename.check_suffix entry suffix then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* the display path a .cmt/.cmti records, and a readable copy of it *)
let source_of path (cmt : Cmt_format.cmt_infos) =
  let file = Option.value ~default:(Filename.basename path) cmt.cmt_sourcefile in
  let source =
    match cmt.cmt_sourcefile with
    | None -> None
    | Some rel ->
        (* the recorded builddir may be a sandbox path that no longer
           exists (dune records /workspace_root); the copy dune makes
           next to the .objs directory is always there, three levels
           up from <dir>/.<lib>.objs/byte/<unit>.cmt *)
        let near_objs =
          Filename.concat
            (Filename.dirname (Filename.dirname (Filename.dirname path)))
            (Filename.basename rel)
        in
        List.find_opt Sys.file_exists
          [ Filename.concat cmt.cmt_builddir rel; rel; near_objs ]
  in
  (file, source)

let read_interface path =
  let cmti = Filename.remove_extension path ^ ".cmti" in
  match Cmt_format.read_cmt cmti with
  | { Cmt_format.cmt_annots = Cmt_format.Interface signature; _ } as cmt ->
      let ifile, isource = source_of cmti cmt in
      Some { ifile; isource; signature }
  | _ -> None
  | exception _ -> None

let read_one path =
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation structure; cmt_modname; _ }
    as cmt ->
      let file, source = source_of path cmt in
      Some
        {
          module_name = cmt_modname;
          file;
          basename = Filename.basename file;
          source;
          structure;
          interface = read_interface path;
        }
  | _ -> None
  | exception _ -> None

let scan roots =
  List.concat_map (fun root -> walk ".cmt" root []) roots
  |> List.filter_map read_one
  |> List.sort_uniq (fun a b ->
         let c = compare a.file b.file in
         if c <> 0 then c else compare a.module_name b.module_name)

let unbuilt roots =
  List.concat_map (fun root -> walk ".cmti" root []) roots
  |> List.filter (fun cmti -> not (Sys.file_exists (Filename.remove_extension cmti ^ ".cmt")))
  |> List.sort compare

let build_root roots =
  let rec up dir =
    if
      Filename.basename dir = "default"
      && Filename.basename (Filename.dirname dir) = "_build"
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  let absolute r =
    if Filename.is_relative r then Filename.concat (Sys.getcwd ()) r else r
  in
  match List.find_map (fun r -> up (absolute r)) roots with
  | Some dir -> [ dir ]
  | None -> roots
