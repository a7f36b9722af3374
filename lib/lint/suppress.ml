type t = { pure : bool; allows : (int * string) list }

let empty = { pure = false; allows = [] }
let magic = "owp-lint:"

(* the directive body runs from after the marker to the comment
   terminator (or end of line), and rule names are the leading
   alphanumeric-dash words; anything after them is free-form reason *)
let directive_body line =
  match String.index_opt line 'o' with
  | None -> None
  | Some _ -> (
      let ll = String.length line and lm = String.length magic in
      let rec find i =
        if i + lm > ll then None
        else if String.sub line i lm = magic then Some (i + lm)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some start ->
          let stop =
            let rec close i =
              if i + 1 >= ll then ll
              else if line.[i] = '*' && line.[i + 1] = ')' then i
              else close (i + 1)
            in
            close start
          in
          Some (String.sub line start (stop - start)))

let rule_word w =
  let w = String.trim w in
  let ok c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  if w <> "" && String.for_all ok w then Some w else None

let parse_line acc lineno line =
  match directive_body line with
  | None -> acc
  | Some body -> (
      let words =
        String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) body)
        |> List.filter (fun w -> String.trim w <> "")
      in
      match words with
      | "allow" :: rest ->
          let rec take acc = function
            | w :: tl -> (
                match rule_word w with Some r -> take (r :: acc) tl | None -> acc)
            | [] -> acc
          in
          let rules = take [] rest in
          {
            acc with
            allows = List.map (fun r -> (lineno, r)) rules @ acc.allows;
          }
      | _ -> acc)

(* the pure tag opens the file, so the syntax quoted in a help string
   tags nothing *)
let pure_tag lines =
  match List.find_opt (fun l -> String.trim l <> "") lines with
  | Some l -> String.starts_with ~prefix:("(* " ^ magic ^ " pure") (String.trim l)
  | None -> false

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      let lines = String.split_on_char '\n' text in
      let acc = ref { empty with pure = pure_tag lines } and lineno = ref 0 in
      List.iter
        (fun line ->
          incr lineno;
          acc := parse_line !acc !lineno line)
        lines;
      !acc
  | exception Sys_error _ -> empty

let pure t = t.pure

let active t ~rule ~line =
  List.exists (fun (l, r) -> r = rule && (l = line || l = line - 1)) t.allows
