type subject = Global | Node of int | Edge of int * int

type t = { checker : string; subject : subject; expected : string; actual : string }

let v ~checker subject ~expected ~actual =
  let subject =
    match subject with
    | Edge (u, v) when u > v -> Edge (v, u)
    | s -> s
  in
  { checker; subject; expected; actual }

let pp_subject ppf = function
  | Global -> Format.pp_print_string ppf "instance"
  | Node i -> Format.fprintf ppf "node %d" i
  | Edge (u, v) -> Format.fprintf ppf "edge %d-%d" u v

let pp ppf t =
  Format.fprintf ppf "[%s] %a: expected %s, got %s" t.checker pp_subject t.subject
    t.expected t.actual

let pp_list ppf = function
  | [] -> Format.pp_print_string ppf "no violations"
  | vs ->
      Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf vs

let to_string t = Format.asprintf "%a" pp t
