(* In-memory spans for the traced run.  Each span is recorded by the
   benchmark around one call into a layer's public function; nothing
   inside the library is instrumented.  A top-level span opens a new
   [op] (one timed call); spans opened inside it share its [op] and name
   it as [parent].  Spans are written out as JSONL only when the run
   ends. *)

type span = {
  op : int;
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;
  start_ms : float;  (** since the recorder was created *)
  end_ms : float;
  minor_words : float;  (** words allocated in the minor heap meanwhile *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
}

type t = {
  origin : float;
  mutable finished : span list;  (** newest first *)
  mutable open_ : (int * int) list;  (** (op, id) of the enclosing spans *)
  mutable next_id : int;
  mutable next_op : int;
}

let create () =
  { origin = Owp_util.Clock.now (); finished = []; open_ = []; next_id = 1; next_op = 1 }

let record t name f =
  let op, parent =
    match t.open_ with
    | (op, id) :: _ -> (op, id)
    | [] ->
        let op = t.next_op in
        t.next_op <- op + 1;
        (op, 0)
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.open_ <- (op, id) :: t.open_;
  (* Gc.minor_words, not quick_stat's, which lags until a minor
     collection *)
  let minor0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let start_ms = Owp_util.Clock.elapsed_ms ~since:t.origin in
  let finish () =
    let end_ms = Owp_util.Clock.elapsed_ms ~since:t.origin in
    let minor1 = Gc.minor_words () and g1 = Gc.quick_stat () in
    t.open_ <- List.tl t.open_;
    t.finished <-
      {
        op;
        id;
        parent;
        name;
        start_ms;
        end_ms;
        minor_words = minor1 -. minor0;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
      }
      :: t.finished
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.finished

let duration s = s.end_ms -. s.start_ms

(* total length of the union of [(lo, hi)] intervals *)
let covered intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) when lo <= chi -> (total, Some (clo, Float.max chi hi))
        | Some (clo, chi) -> (total +. (chi -. clo), Some (lo, hi)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (lo, hi) -> total +. (hi -. lo)

(* a span's duration minus the part of its interval its children cover *)
let self_ms all s =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = s.id && c.op = s.op then
          let lo = Float.max c.start_ms s.start_ms and hi = Float.min c.end_ms s.end_ms in
          if hi > lo then Some (lo, hi) else None
        else None)
      all
  in
  duration s -. covered children

type row = { layer : string; calls : int; total_ms : float; self_total_ms : float }

(* per-name aggregate, heaviest self time first *)
let self_table all =
  let rows =
    List.fold_left
      (fun acc s ->
        let self = self_ms all s in
        match List.assoc_opt s.name acc with
        | Some r ->
            ( s.name,
              {
                r with
                calls = r.calls + 1;
                total_ms = r.total_ms +. duration s;
                self_total_ms = r.self_total_ms +. self;
              } )
            :: List.remove_assoc s.name acc
        | None ->
            (s.name, { layer = s.name; calls = 1; total_ms = duration s; self_total_ms = self })
            :: acc)
      [] all
  in
  List.map snd rows
  |> List.sort (fun a b ->
         match Float.compare b.self_total_ms a.self_total_ms with
         | 0 -> String.compare a.layer b.layer
         | c -> c)

let to_json s =
  Bjson.Obj
    [
      ("op", Bjson.Num (float_of_int s.op));
      ("id", Bjson.Num (float_of_int s.id));
      ("parent", Bjson.Num (float_of_int s.parent));
      ("name", Bjson.Str s.name);
      ("start_ms", Bjson.Num s.start_ms);
      ("end_ms", Bjson.Num s.end_ms);
      ("minor_words", Bjson.Num s.minor_words);
      ("major_words", Bjson.Num s.major_words);
    ]

let write_jsonl path t =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Bjson.to_string (to_json s));
          output_char oc '\n')
        (spans t))
