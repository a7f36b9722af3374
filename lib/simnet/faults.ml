type t = {
  drop : float;
  duplicate : float;
  reorder : float;
  fifo : bool;
  crash : float;
  patience : float option;
}

let none =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; fifo = true; crash = 0.0; patience = None }

let make ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(fifo = true) ?(crash = 0.0)
    ?patience () =
  { drop; duplicate; reorder; fifo; crash; patience }

let equal a b =
  Float.equal a.drop b.drop
  && Float.equal a.duplicate b.duplicate
  && Float.equal a.reorder b.reorder
  && Bool.equal a.fifo b.fifo
  && Float.equal a.crash b.crash
  && Option.equal Float.equal a.patience b.patience

let channel t = Simnet.faults ~drop:t.drop ~duplicate:t.duplicate ~reorder:t.reorder ()

let channel_faulty t =
  t.drop > 0.0 || t.duplicate > 0.0 || t.reorder > 0.0 || not t.fifo

let any t = channel_faulty t || t.crash > 0.0

(* default protocol-level timeout armed when crashes are in play and no
   explicit patience was given: long enough that a live peer behind a
   lossy-but-retransmitting channel answers first (the transport's
   bounded-retry window drains well inside it at the default RTO), short
   enough that runs with crashed peers still terminate promptly *)
let default_crash_patience = 60.0

let effective_patience t =
  match t.patience with
  | Some _ as p -> p
  | None -> if t.crash > 0.0 then Some default_crash_patience else None

let validate t =
  (* written so that NaN fails every check *)
  let prob name p =
    if p >= 0.0 && p <= 1.0 then Ok ()
    else Error (Printf.sprintf "%s must be in [0, 1]" name)
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" t.drop in
  let* () = prob "dup" t.duplicate in
  let* () = prob "reorder" t.reorder in
  let* () = prob "crash" t.crash in
  match t.patience with
  | Some p when not (p > 0.0 && Float.is_finite p) ->
      Error "patience must be positive and finite"
  | _ -> Ok t

let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  if s = "" || s = "none" then Ok none
  else begin
    let parse_field acc item =
      Result.bind acc (fun t ->
          let fail () = Error (Printf.sprintf "bad fault field %S" item) in
          let fl v k =
            match float_of_string_opt v with Some f -> Ok (k f) | None -> fail ()
          in
          match String.split_on_char '=' (String.trim item) with
          | [ "unordered" ] -> Ok { t with fifo = false }
          | [ "fifo" ] -> Ok { t with fifo = true }
          | [ "drop"; v ] -> fl v (fun f -> { t with drop = f })
          | [ "dup"; v ] | [ "duplicate"; v ] -> fl v (fun f -> { t with duplicate = f })
          | [ "reorder"; v ] -> fl v (fun f -> { t with reorder = f })
          | [ "crash"; v ] -> fl v (fun f -> { t with crash = f })
          | [ "patience"; v ] -> fl v (fun f -> { t with patience = Some f })
          | _ -> fail ())
    in
    Result.bind
      (List.fold_left parse_field (Ok none) (String.split_on_char ',' s))
      validate
  end

(* shortest float rendering that round-trips through the parser *)
let fcell f =
  let s = Printf.sprintf "%.12g" f in
  s

let to_string t =
  let fields =
    List.concat
      [
        (if t.drop > 0.0 then [ "drop=" ^ fcell t.drop ] else []);
        (if t.duplicate > 0.0 then [ "dup=" ^ fcell t.duplicate ] else []);
        (if t.reorder > 0.0 then [ "reorder=" ^ fcell t.reorder ] else []);
        (if not t.fifo then [ "unordered" ] else []);
        (if t.crash > 0.0 then [ "crash=" ^ fcell t.crash ] else []);
        (match t.patience with Some p -> [ "patience=" ^ fcell p ] | None -> []);
      ]
  in
  match fields with [] -> "none" | fs -> String.concat "," fs

let pp ppf t = Format.pp_print_string ppf (to_string t)
