type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?title cols =
  { title; headers = List.map fst cols; aligns = List.map snd cols; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rows t rows = List.iter (add_row t) rows
let add_separator t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Separator -> ()) rows;
  let buf = Buffer.create 1024 in
  let pad align width s =
    let padding = String.make (max 0 (width - String.length s)) ' ' in
    match align with Left -> s ^ padding | Right -> padding ^ s
  in
  let rule () =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let line cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf "| ";
        Buffer.add_string buf (pad (List.nth t.aligns i) widths.(i) c);
        Buffer.add_char buf ' ')
      cells;
    Buffer.add_string buf "|\n"
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  line t.headers;
  rule ();
  List.iter (function Cells c -> line c | Separator -> rule ()) rows;
  rule ();
  Buffer.contents buf

(* string cells carry no type information, so JSON values are inferred:
   anything that parses as a number is emitted bare, a trailing '%' is
   stripped back to a ratio, everything else is an escaped string *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_cell s =
  let numeric str =
    match float_of_string_opt str with
    | Some f when Float.is_finite f -> Some str
    | _ -> None
  in
  match numeric s with
  | Some lit -> lit
  | None -> (
      let n = String.length s in
      let as_pct =
        if n > 1 && s.[n - 1] = '%' then
          match float_of_string_opt (String.sub s 0 (n - 1)) with
          | Some f when Float.is_finite f -> Some (Printf.sprintf "%.6g" (f /. 100.0))
          | _ -> None
        else None
      in
      match as_pct with
      | Some lit -> lit
      | None -> "\"" ^ json_escape s ^ "\"")

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  (match t.title with
  | Some title -> Buffer.add_string buf (Printf.sprintf "  \"title\": \"%s\",\n" (json_escape title))
  | None -> ());
  Buffer.add_string buf "  \"columns\": [";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf ("\"" ^ json_escape h ^ "\""))
    t.headers;
  Buffer.add_string buf "],\n  \"rows\": [";
  let first = ref true in
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf "\n    {";
          List.iteri
            (fun i (h, c) ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "\"%s\": %s" (json_escape h) (json_cell c)))
            (List.combine t.headers cells);
          Buffer.add_char buf '}')
    (List.rev t.rows);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let fcell x = Printf.sprintf "%.4f" x
let fcell2 x = Printf.sprintf "%.2f" x
let icell = string_of_int
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
