type offence =
  | Stranger
  | Duplicate_prop
  | Duplicate_rej
  | Prop_after_rej
  | Rej_after_prop
  | Stale_epoch
  | Overclaim
  | Claim_mismatch
  | Flood

let offence_name = function
  | Stranger -> "stranger"
  | Duplicate_prop -> "duplicate-prop"
  | Duplicate_rej -> "duplicate-rej"
  | Prop_after_rej -> "prop-after-rej"
  | Rej_after_prop -> "rej-after-prop"
  | Stale_epoch -> "stale-epoch"
  | Overclaim -> "overclaim"
  | Claim_mismatch -> "claim-mismatch"
  | Flood -> "flood"

type body = Prop of { claim : float } | Rej

type msg = { epoch : int; body : body }

type config = {
  epoch : int;
  quarantine_threshold : float;
  flood_limit : int;
  tolerance : float;
}

let default_config =
  { epoch = 0; quarantine_threshold = 1.0; flood_limit = 8; tolerance = 1e-9 }

type verdict = { accept : bool; offence : offence option; quarantine : bool }

(* Per-peer state lives in slots over [uniq], the node's neighbour ids in
   ascending order (Lid's node-state layout), found by binary search:
   link flags in one byte, message counts, scores and pinned adverts in
   arrays.  Strangers — peers off the potential graph — can only offend;
   they land in the lazily created [strangers] side table. *)
let fl_prop = 1 (* an accepted PROP arrived on this link *)
let fl_rej = 2 (* an accepted REJ arrived on this link *)
let fl_quarantined = 4
let fl_advert = 8 (* [advert] holds the pinned half-weight advertisement *)

type stranger = {
  mutable s_msgs : int;
  mutable s_score : float;
  mutable s_quarantined : bool;
}

type t = {
  config : config;
  bound : int -> float;
  me : int;
  uniq : int array;
  flags : Bytes.t;
  msgs : int array; (* messages seen from this peer (pre-quarantine) *)
  score : float array;
  advert : float array;
  mutable strangers : (int, stranger) Hashtbl.t option;
  mutable log : (int * offence) list;  (** newest first *)
}

let create ?(config = default_config) ?(bound = fun _ -> infinity) ~graph ~me () =
  (* a row is sorted, and unique since Graph coalesces parallel edges *)
  let uniq = Graph.neighbor_nodes graph me in
  let m = Array.length uniq in
  {
    config;
    bound;
    me;
    uniq;
    flags = Bytes.make m '\000';
    msgs = Array.make m 0;
    score = Array.make m 0.0;
    advert = Array.make m 0.0;
    strangers = None;
    log = [];
  }

(* slot of neighbour [id], or -1 for a stranger *)
let slot_of t id =
  let lo = ref 0 and hi = ref (Array.length t.uniq - 1) and res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = Array.unsafe_get t.uniq mid in
    if x = id then res := mid else if x < id then lo := mid + 1 else hi := mid - 1
  done;
  !res

let get t i = Char.code (Bytes.unsafe_get t.flags i)
let set t i f = Bytes.unsafe_set t.flags i (Char.unsafe_chr f)

let find_stranger t peer = Option.bind t.strangers (fun tbl -> Hashtbl.find_opt tbl peer)

let stranger t peer =
  let tbl =
    match t.strangers with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        t.strangers <- Some tbl;
        tbl
  in
  match Hashtbl.find_opt tbl peer with
  | Some st -> st
  | None ->
      let st = { s_msgs = 0; s_score = 0.0; s_quarantined = false } in
      Hashtbl.replace tbl peer st;
      st

let dropped = { accept = false; offence = None; quarantine = false }
let accepted = { accept = true; offence = None; quarantine = false }

(* score the offence; the verdict says whether this very message crossed
   the quarantine threshold, so the caller runs the escape hatch once *)
let record t i peer offence =
  t.log <- (peer, offence) :: t.log;
  t.score.(i) <- t.score.(i) +. 1.0;
  let f = get t i in
  let crossed =
    f land fl_quarantined = 0 && t.score.(i) >= t.config.quarantine_threshold
  in
  if crossed then set t i (f lor fl_quarantined);
  { accept = false; offence = Some offence; quarantine = crossed }

(* a stranger's message: dropped once quarantined, else a [Stranger]
   offence; [inspect] also counts it against the flood budget *)
let from_stranger t peer ~count =
  let st = stranger t peer in
  if st.s_quarantined then dropped
  else begin
    if count then st.s_msgs <- st.s_msgs + 1;
    t.log <- (peer, Stranger) :: t.log;
    st.s_score <- st.s_score +. 1.0;
    let crossed = st.s_score >= t.config.quarantine_threshold in
    if crossed then st.s_quarantined <- true;
    { accept = false; offence = Some Stranger; quarantine = crossed }
  end

let mismatched t i claim =
  get t i land fl_advert <> 0 && Float.abs (claim -. t.advert.(i)) > t.config.tolerance

let on_advert t ~peer ~claim =
  let i = slot_of t peer in
  if i < 0 then from_stranger t peer ~count:false
  else if get t i land fl_quarantined <> 0 then dropped
  else if claim > t.bound peer +. t.config.tolerance then record t i peer Overclaim
  else if mismatched t i claim then record t i peer Claim_mismatch
  else begin
    let f = get t i in
    if f land fl_advert = 0 then begin
      set t i (f lor fl_advert);
      t.advert.(i) <- claim
    end;
    accepted
  end

let inspect t ~peer (m : msg) =
  let i = slot_of t peer in
  if i < 0 then from_stranger t peer ~count:true
  else begin
    let f = get t i in
    if f land fl_quarantined <> 0 then dropped
    else begin
      let offence =
        if m.epoch <> t.config.epoch then Some Stale_epoch
        else if t.msgs.(i) >= t.config.flood_limit then Some Flood
        else
          match m.body with
          | Prop { claim } ->
              if f land fl_prop <> 0 then Some Duplicate_prop
              else if f land fl_rej <> 0 then Some Prop_after_rej
              else if claim > t.bound peer +. t.config.tolerance then Some Overclaim
              else if mismatched t i claim then Some Claim_mismatch
              else None
          | Rej ->
              if f land fl_rej <> 0 then Some Duplicate_rej
              else if f land fl_prop <> 0 then Some Rej_after_prop
              else None
      in
      t.msgs.(i) <- t.msgs.(i) + 1;
      match offence with
      | Some o -> record t i peer o
      | None ->
          (* link flags advance only on accepted messages: an offending
             message never reached the state machine, so it cannot count
             as the one legal message of its kind *)
          set t i (f lor match m.body with Prop _ -> fl_prop | Rej -> fl_rej);
          accepted
    end
  end

let quarantined t ~peer =
  let i = slot_of t peer in
  if i >= 0 then get t i land fl_quarantined <> 0
  else match find_stranger t peer with Some st -> st.s_quarantined | None -> false

let score t ~peer =
  let i = slot_of t peer in
  if i >= 0 then t.score.(i)
  else match find_stranger t peer with Some st -> st.s_score | None -> 0.0

(* [f id flags msgs score] over every peer, neighbours and strangers
   together, in ascending id order *)
let iter_peers t f =
  let strangers =
    match t.strangers with
    | None -> []
    | Some tbl ->
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Hashtbl.fold (fun p st acc -> (p, st) :: acc) tbl [])
  in
  let rec go i = function
    | (p, st) :: rest when i >= Array.length t.uniq || p < t.uniq.(i) ->
        f p (if st.s_quarantined then fl_quarantined else 0) st.s_msgs st.s_score;
        go i rest
    | strangers when i < Array.length t.uniq ->
        f t.uniq.(i) (get t i) t.msgs.(i) t.score.(i);
        go (i + 1) strangers
    | _ -> ()
  in
  go 0 strangers

let quarantined_peers t =
  let acc = ref [] in
  iter_peers t (fun p fl _ _ -> if fl land fl_quarantined <> 0 then acc := p :: !acc);
  List.rev !acc

let offences t = List.rev t.log

let offence_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, o) ->
      let k = offence_name o in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    t.log;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [] |> List.sort compare

let copy t =
  {
    t with
    flags = Bytes.copy t.flags;
    msgs = Array.copy t.msgs;
    score = Array.copy t.score;
    advert = Array.copy t.advert;
    strangers =
      Option.map
        (fun tbl ->
          let c = Hashtbl.copy tbl in
          Hashtbl.filter_map_inplace (fun _ st -> Some { st with s_msgs = st.s_msgs }) c;
          c)
        t.strangers;
  }

let fingerprint t =
  let b = Buffer.create 64 in
  iter_peers t (fun p fl msgs score ->
      (* untouched peers are indistinguishable from absent entries *)
      if fl land (fl_prop lor fl_rej lor fl_quarantined) <> 0 || msgs > 0 || score > 0.0
      then begin
        Buffer.add_string b (string_of_int p);
        Buffer.add_char b (if fl land fl_prop <> 0 then 'P' else 'p');
        Buffer.add_char b (if fl land fl_rej <> 0 then 'R' else 'r');
        Buffer.add_char b (if fl land fl_quarantined <> 0 then 'Q' else 'q');
        Buffer.add_string b (string_of_int msgs);
        Buffer.add_char b ':';
        Buffer.add_string b (Printf.sprintf "%h" score);
        Buffer.add_char b ';'
      end);
  Buffer.contents b
