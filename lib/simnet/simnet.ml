module Prng = Owp_util.Prng
module Pool = Owp_util.Pool
module Event_wheel = Owp_util.Event_wheel

type delay_model =
  | Unit
  | Uniform of float * float
  | Exponential of float
  | PerLink of (int -> int -> float)

type faults = {
  drop_probability : float;
  duplicate_probability : float;
  reorder_probability : float;
}

let no_faults =
  { drop_probability = 0.0; duplicate_probability = 0.0; reorder_probability = 0.0 }

let faults ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) () =
  { drop_probability = drop; duplicate_probability = duplicate; reorder_probability = reorder }

(* Events live in per-shard {!Event_wheel}s keyed by (at, seq); the
   wheel payload is an arena slot.  Slot >= 0 is a message: [m_link]
   packs the directed link as src * nodes + dst and [m_pay] holds the
   message itself.  Slot < 0 encodes callback arena index -slot - 1.
   Freed slots chain into a free list through the same int array, so
   steady-state traffic allocates nothing per event. *)

type 'm t = {
  nodes : int;
  rng : Prng.t;
  fifo : bool;
  faults : faults;
  delay : delay_model;
  shards : int;
  block : int; (* nodes per shard (contiguous ranges) *)
  jobs : int; (* domains available for batched window opening *)
  wheels : Event_wheel.t array; (* length shards; callbacks go to wheel 0 *)
  (* message arena *)
  mutable m_link : int array; (* live: packed src * nodes + dst; free: next free slot *)
  mutable m_pay : 'm array; (* [||] until the first message; slot 0 is a permanent dummy *)
  mutable m_free : int; (* free-list head, -1 when the arena is full *)
  (* callback arena *)
  mutable c_fn : (unit -> unit) array;
  mutable c_next : int array;
  mutable c_free : int;
  (* open-addressed link-clock table: packed link -> last scheduled
     delivery, for the FIFO clamp.  Linear probing over a power-of-two
     array; empty slots hold key -1; values stay unboxed in the float
     array.  Compaction drops entries the virtual clock has passed. *)
  mutable lc_key : int array;
  mutable lc_val : float array;
  mutable lc_n : int;
  up : bool array; (* crash/restart state; length max nodes 1 *)
  mutable handler : (src:int -> dst:int -> 'm -> unit) option;
  mutable outage : (at:float -> src:int -> dst:int -> float) option;
  mutable clock : float;
  mutable next_seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable reordered : int;
  mutable lost_to_crashes : int;
  mutable cut : int;
  mutable crash_count : int;
}

let check_probability name p =
  if p < 0.0 || p > 1.0 then invalid_arg (Printf.sprintf "Simnet.create: %s out of range" name)

(* bucket width matched to the delay model — a throughput knob only;
   the wheel's pop order is exact for any width *)
let wheel_width = function
  | Unit -> 0.5
  | Uniform (lo, hi) ->
      let w = (lo +. hi) /. 4.0 in
      if Float.is_finite w && w > 0.0 then w else 0.25
  | Exponential mean ->
      let w = mean /. 2.0 in
      if Float.is_finite w && w > 0.0 then w else 0.25
  | PerLink _ -> 0.5

let create ?(seed = 0xC0FFEE) ?(fifo = true) ?(faults = no_faults) ?(shards = 1)
    ?(unsafe_lookahead = false) ~nodes ~delay () =
  if nodes < 0 then invalid_arg "Simnet.create: negative node count";
  check_probability "drop_probability" faults.drop_probability;
  check_probability "duplicate_probability" faults.duplicate_probability;
  check_probability "reorder_probability" faults.reorder_probability;
  if shards < 1 then invalid_arg "Simnet.create: shards must be positive";
  let shards = if nodes = 0 then 1 else min shards nodes in
  let width = wheel_width delay in
  {
    nodes;
    rng = Prng.create seed;
    fifo;
    faults;
    delay;
    shards;
    block = (if nodes = 0 then 1 else (nodes + shards - 1) / shards);
    jobs = Pool.default_jobs ();
    wheels =
      Array.init shards (fun _ ->
          Event_wheel.create ~width ~unsafe_lookahead ());
    m_link = [||];
    m_pay = [||];
    m_free = -1;
    c_fn = [||];
    c_next = [||];
    c_free = -1;
    lc_key = Array.make 1024 (-1);
    lc_val = Array.make 1024 0.0;
    lc_n = 0;
    up = Array.make (max nodes 1) true;
    handler = None;
    outage = None;
    clock = 0.0;
    next_seq = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    reordered = 0;
    lost_to_crashes = 0;
    cut = 0;
    crash_count = 0;
  }

let node_count t = t.nodes
let shard_count t = t.shards
let now t = t.clock
let set_handler t h = t.handler <- Some h
let set_outage t f = t.outage <- f

let check_node fn t v =
  if v < 0 || v >= t.nodes then invalid_arg (Printf.sprintf "Simnet.%s: node out of range" fn)

let is_up t v =
  check_node "is_up" t v;
  t.up.(v)

let crash t v =
  check_node "crash" t v;
  if t.up.(v) then begin
    t.up.(v) <- false;
    t.crash_count <- t.crash_count + 1
  end

let restart t v =
  check_node "restart" t v;
  t.up.(v) <- true

(* ------------------------------------------------------------------ *)
(* arenas                                                              *)
(* ------------------------------------------------------------------ *)

(* slot 0 is a permanent dummy holding the first message ever stored:
   it gives released slots a value to point at so the arena never
   retains more than O(1) dead payloads *)
let slot_alloc t link m =
  if t.m_free < 0 then begin
    let old = Array.length t.m_pay in
    if old = 0 then begin
      let cap = 16 in
      t.m_pay <- Array.make cap m;
      t.m_link <- Array.make cap (-1);
      for i = 1 to cap - 2 do
        t.m_link.(i) <- i + 1
      done;
      t.m_link.(cap - 1) <- -1;
      t.m_free <- 1
    end
    else begin
      let cap = 2 * old in
      let pay = Array.make cap t.m_pay.(0) in
      Array.blit t.m_pay 0 pay 0 old;
      let lnk = Array.make cap (-1) in
      Array.blit t.m_link 0 lnk 0 old;
      for i = old to cap - 2 do
        lnk.(i) <- i + 1
      done;
      lnk.(cap - 1) <- -1;
      t.m_pay <- pay;
      t.m_link <- lnk;
      t.m_free <- old
    end
  end;
  let s = t.m_free in
  t.m_free <- t.m_link.(s);
  t.m_link.(s) <- link;
  t.m_pay.(s) <- m;
  s

let slot_release t s =
  t.m_pay.(s) <- t.m_pay.(0);
  t.m_link.(s) <- t.m_free;
  t.m_free <- s

let noop () = ()

let cb_alloc t f =
  if t.c_free < 0 then begin
    let old = Array.length t.c_fn in
    let cap = max 16 (2 * old) in
    let fn = Array.make cap noop in
    Array.blit t.c_fn 0 fn 0 old;
    let nx = Array.make cap (-1) in
    Array.blit t.c_next 0 nx 0 old;
    for i = old to cap - 2 do
      nx.(i) <- i + 1
    done;
    nx.(cap - 1) <- -1;
    t.c_fn <- fn;
    t.c_next <- nx;
    t.c_free <- old
  end;
  let s = t.c_free in
  t.c_free <- t.c_next.(s);
  t.c_fn.(s) <- f;
  s

let cb_release t s =
  t.c_fn.(s) <- noop;
  t.c_next.(s) <- t.c_free;
  t.c_free <- s

(* ------------------------------------------------------------------ *)
(* enqueue                                                             *)
(* ------------------------------------------------------------------ *)

let sample_delay t src dst =
  let d =
    match t.delay with
    | Unit -> 1.0
    | Uniform (lo, hi) ->
        if hi < lo then invalid_arg "Simnet: bad uniform delay bounds";
        lo +. Prng.float t.rng (hi -. lo)
    | Exponential mean -> Prng.exponential t.rng mean
    | PerLink f -> f src dst
  in
  if d < 0.0 then invalid_arg "Simnet: negative delay";
  (* strictly positive so a message never arrives "now" *)
  Float.max d 1e-9

let shard_of t dst = dst / t.block

let push_deliver t at ~src ~dst m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = slot_alloc t ((src * t.nodes) + dst) m in
  Event_wheel.add t.wheels.(shard_of t dst) ~at ~seq slot

let push_callback t at f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let idx = cb_alloc t f in
  Event_wheel.add t.wheels.(0) ~at ~seq (-idx - 1)

(* slot where [key] lives or would be inserted (linear probing) *)
let lc_probe t key =
  let mask = Array.length t.lc_key - 1 in
  let i = ref (key * 0x2545F4914F6CDD1D land mask) in
  while
    let k = Array.unsafe_get t.lc_key !i in
    k >= 0 && k <> key
  do
    i := (!i + 1) land mask
  done;
  !i

(* Rebuild the table, dropping entries the virtual clock has passed:
   once [prev <= clock], every future base [clock + delay > prev] beats
   the clamp, so the entry can never fire again — it is equivalent to
   absent.  Capacity tracks the live population (growing when traffic
   genuinely keeps that many links hot), so the table is bounded by the
   in-flight working set, not by the total links ever used. *)
let lc_compact t =
  let ok = t.lc_key and ov = t.lc_val in
  let live = ref 0 in
  Array.iteri (fun i k -> if k >= 0 && ov.(i) > t.clock then incr live) ok;
  let cap = ref 1024 in
  while !cap < 3 * !live do
    cap := 2 * !cap
  done;
  t.lc_key <- Array.make !cap (-1);
  t.lc_val <- Array.make !cap 0.0;
  t.lc_n <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 && ov.(i) > t.clock then begin
        let s = lc_probe t k in
        t.lc_key.(s) <- k;
        t.lc_val.(s) <- ov.(i);
        t.lc_n <- t.lc_n + 1
      end)
    ok

let enqueue_delivery t ~src ~dst m =
  let base = t.clock +. sample_delay t src dst in
  let reorder =
    t.faults.reorder_probability > 0.0
    && Prng.bernoulli t.rng t.faults.reorder_probability
  in
  let at =
    if reorder then begin
      (* the message straggles: extra delay, and it bypasses the FIFO
         clamp so it overtakes (or is overtaken by) later traffic *)
      t.reordered <- t.reordered + 1;
      base +. sample_delay t src dst +. (2.0 *. sample_delay t src dst)
    end
    else if t.fifo then begin
      if 2 * (t.lc_n + 1) > Array.length t.lc_key then lc_compact t;
      let key = (src * t.nodes) + dst in
      let slot = lc_probe t key in
      let prev = if t.lc_key.(slot) >= 0 then t.lc_val.(slot) else neg_infinity in
      let at = if base <= prev then prev +. 1e-9 else base in
      if t.lc_key.(slot) < 0 then begin
        t.lc_key.(slot) <- key;
        t.lc_n <- t.lc_n + 1
      end;
      t.lc_val.(slot) <- at;
      at
    end
    else base
  in
  push_deliver t at ~src ~dst m

let send t ~src ~dst m =
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Simnet.send: endpoint out of range";
  if not t.up.(src) then
    (* a crashed host cannot transmit; accounted separately from channel loss *)
    t.lost_to_crashes <- t.lost_to_crashes + 1
  else begin
    t.sent <- t.sent + 1;
    if t.faults.drop_probability > 0.0 && Prng.bernoulli t.rng t.faults.drop_probability
    then t.dropped <- t.dropped + 1
    else begin
      enqueue_delivery t ~src ~dst m;
      if
        t.faults.duplicate_probability > 0.0
        && Prng.bernoulli t.rng t.faults.duplicate_probability
      then enqueue_delivery t ~src ~dst m
    end
  end

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Simnet.schedule: negative delay";
  push_callback t (t.clock +. delay) f

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* conservative-lookahead window opening: each shard's next window is a
   pure function of that wheel's own contents, so unopened windows can
   be collected and sorted concurrently through the domain pool before
   the sequential (at, seq) merge consumes them *)
let prepare_all t =
  let pending = ref 0 in
  for i = 0 to t.shards - 1 do
    if Event_wheel.needs_prepare t.wheels.(i) then incr pending
  done;
  if !pending > 1 && t.jobs > 1 then
    ignore
      (Pool.map ~jobs:(min t.jobs t.shards)
         (fun wix -> Event_wheel.prepare t.wheels.(wix))
         (Array.init t.shards (fun i -> i)))
  else if !pending > 0 then
    for i = 0 to t.shards - 1 do
      Event_wheel.prepare t.wheels.(i)
    done

(* index of the wheel holding the global (at, seq) minimum, or -1.
   seq values are globally unique, so the argmin is unambiguous and the
   merge order cannot depend on the shard count. *)
let select t =
  prepare_all t;
  let best = ref (-1) and ba = ref 0.0 and bs = ref 0 in
  for i = 0 to t.shards - 1 do
    match Event_wheel.peek_key t.wheels.(i) with
    | Some (at, seq) ->
        if !best < 0 || at < !ba || (Float.equal at !ba && seq < !bs) then begin
          best := i;
          ba := at;
          bs := seq
        end
    | None -> ()
  done;
  !best

let pop_global t =
  if t.shards = 1 then Event_wheel.pop t.wheels.(0)
  else
    let i = select t in
    if i < 0 then None else Event_wheel.pop t.wheels.(i)

let peek_global t =
  if t.shards = 1 then Event_wheel.peek_key t.wheels.(0)
  else
    let i = select t in
    if i < 0 then None else Event_wheel.peek_key t.wheels.(i)

(* deliver one message: link weather is evaluated at delivery time, so
   an episode that starts while a message is in flight still swallows
   it; a certain cut (p >= 1) consumes no randomness, keeping cut-only
   schedules delay-identical to the scheduleless run *)
let deliver_one t at ~src ~dst m =
  let cut =
    match t.outage with
    | None -> false
    | Some f ->
        let p = f ~at ~src ~dst in
        p >= 1.0 || (p > 0.0 && Prng.bernoulli t.rng p)
  in
  if cut then t.cut <- t.cut + 1
  else if not t.up.(dst) then
    (* the packet reached a crashed host: lost, like any queued data
       the host's NIC would discard *)
    t.lost_to_crashes <- t.lost_to_crashes + 1
  else begin
    t.delivered <- t.delivered + 1;
    match t.handler with
    | Some h -> h ~src ~dst m
    | None -> failwith "Simnet: message due but no handler installed"
  end

let dispatch t at pay =
  t.clock <- at;
  if pay < 0 then begin
    let i = -pay - 1 in
    let f = t.c_fn.(i) in
    cb_release t i;
    f ()
  end
  else begin
    let link = t.m_link.(pay) in
    let m = t.m_pay.(pay) in
    slot_release t pay;
    deliver_one t at ~src:(link / t.nodes) ~dst:(link mod t.nodes) m
  end

(* The hot loop batches per-node mailboxes: all deliveries sharing one
   timestamp drain in a single inner pass, in exact (at, seq) order,
   with per-message coins and handler calls unchanged — the
   batch only skips the outer loop's re-entry between them.  The
   single-shard path uses the wheel's allocation-free pop protocol;
   multi-shard dispatch keeps the option-based merge (correctness path,
   its per-event cost is dominated by the argmin scan anyway). *)
let run t =
  if t.shards = 1 then begin
    let w = t.wheels.(0) in
    while Event_wheel.pop_into w do
      let at = Event_wheel.last_at w in
      dispatch t at (Event_wheel.last_pay w);
      while Event_wheel.next_at_equals w at && Event_wheel.pop_into w do
        dispatch t at (Event_wheel.last_pay w)
      done
    done
  end
  else begin
    let continue = ref true in
    while !continue do
      match pop_global t with
      | None -> continue := false
      | Some (at, _seq, pay) ->
          dispatch t at pay;
          let same = ref true in
          while !same do
            match peek_global t with
            | Some (at', _) when Float.equal at' at -> (
                match pop_global t with
                | Some (_, _, pay') -> dispatch t at pay'
                | None -> same := false)
            | _ -> same := false
          done
    done
  end

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match peek_global t with
    | None -> continue := false
    | Some (at, _) when at > horizon -> continue := false
    | Some _ -> (
        match pop_global t with
        | Some (at, _seq, pay) -> dispatch t at pay
        | None -> continue := false)
  done

let pending_events t =
  let s = ref 0 in
  for i = 0 to t.shards - 1 do
    s := !s + Event_wheel.size t.wheels.(i)
  done;
  !s

let footprint_words t =
  let words = ref 0 in
  for i = 0 to t.shards - 1 do
    words := !words + Event_wheel.footprint_words t.wheels.(i)
  done;
  !words
  + (2 * Array.length t.m_link)
  + (2 * Array.length t.c_fn)
  + (2 * Array.length t.lc_key)

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_reordered t = t.reordered
let messages_lost_to_crashes t = t.lost_to_crashes
let messages_cut t = t.cut
let crash_events t = t.crash_count
