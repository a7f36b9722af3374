module Prng = Owp_util.Prng

type 'm frame =
  | Data of { epoch : int; seq : int; payload : 'm }
  | Ack of { epoch : int; cum : int }

type config = {
  rto_initial : float;
  rto_backoff : float;
  rto_max : float;
  rto_jitter : float;
  max_retries : int;
}

let default_config =
  { rto_initial = 4.0; rto_backoff = 1.6; rto_max = 48.0; rto_jitter = 0.25; max_retries = 24 }

(* Sender half of a directed link: the retransmission window.  Go-back-N
   with cumulative ACKs keeps the unacked seqs contiguous, so the window
   is the ring [base, next_seq) over [win]: seq k lives at
   [k land (Array.length win - 1)], the length a power of two (2 at
   first) that doubles when the window fills.  A crash-restart of the sending node
   replaces the record (a new [s_epoch]); [fire], the retransmission
   timer built once per record, tells a stale timer by that epoch. *)
type 'm sender = {
  s_epoch : int; (* local incarnation the stream belongs to *)
  mutable base : int; (* lowest unacked seq *)
  mutable next_seq : int;
  mutable win : 'm array; (* [||] before the first send *)
  mutable rto : float;
  mutable retries : int; (* consecutive timer firings without ack progress *)
  mutable timer_armed : bool;
  mutable s_dead : bool; (* gave up: peer declared dead for this link *)
  mutable s_suspected : bool; (* give-up held by an outage episode *)
  mutable fire : unit -> unit;
}

(* Receiver half of a directed link: dedup + in-order reassembly.  The
   out-of-order buffer holds [ooo_n] frames sorted by seq, all above
   [cum + 1]; an in-order frame on an empty buffer never touches it. *)
type 'm receiver = {
  r_owner : int; (* incarnation of the receiving node the state belongs to *)
  mutable r_epoch : int; (* peer incarnation this state tracks *)
  mutable cum : int; (* highest in-order-delivered seq; -1 before any *)
  mutable ooo_seq : int array;
  mutable ooo_pay : 'm array;
  mutable ooo_n : int;
}

(* Both halves of every directed link live in one open-addressed table
   keyed by the packed link [src * nodes + dst], with the probe of
   Simnet's link clock: linear probing over a power-of-two array, key -1
   for an empty slot.  [no_sender] and [no_receiver] fill the slots of a
   half not yet used; their epoch -1 matches no incarnation, so a lookup
   needs no emptiness test.  Entries are never removed: a restart bumps
   the node's epoch, which makes its senders and receivers stale, and
   the next use replaces them in place. *)
type 'm t = {
  net : 'm frame Simnet.t;
  config : config;
  jitter_rng : Prng.t;
  nodes : int;
  epochs : int array; (* per-node incarnation, bumped by restart_node *)
  mutable lk_key : int array;
  mutable lk_snd : 'm sender array; (* [no_sender] until the link sends *)
  mutable lk_rcv : 'm receiver array; (* [no_receiver] until a frame arrives *)
  mutable lk_n : int;
  no_sender : 'm sender;
  no_receiver : 'm receiver;
  on_deliver : src:int -> dst:int -> 'm -> unit;
  on_peer_dead : node:int -> peer:int -> unit;
  hold : node:int -> peer:int -> bool;
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable duplicates_suppressed : int;
  mutable peers_declared_dead : int;
  mutable links_suspected : int;
  mutable links_resumed : int;
  mutable give_ups_held : int;
}

let new_sender ~epoch ~rto =
  {
    s_epoch = epoch;
    base = 0;
    next_seq = 0;
    win = [||];
    rto;
    retries = 0;
    timer_armed = false;
    s_dead = false;
    s_suspected = false;
    fire = ignore;
  }

let new_receiver ~owner ~epoch =
  { r_owner = owner; r_epoch = epoch; cum = -1; ooo_seq = [||]; ooo_pay = [||]; ooo_n = 0 }

let validate_config c =
  if c.rto_initial <= 0.0 then invalid_arg "Transport: rto_initial must be positive";
  if c.rto_backoff < 1.0 then invalid_arg "Transport: rto_backoff must be >= 1";
  if c.rto_max < c.rto_initial then invalid_arg "Transport: rto_max below rto_initial";
  if c.rto_jitter < 0.0 then invalid_arg "Transport: negative rto_jitter";
  if c.max_retries < 0 then invalid_arg "Transport: negative max_retries"

(* ------------------------------------------------------------------ *)
(* the link table                                                      *)
(* ------------------------------------------------------------------ *)

(* slot where [key] lives or would be inserted *)
let probe keys key =
  let mask = Array.length keys - 1 in
  let i = ref (key * 0x2545F4914F6CDD1D land mask) in
  while
    let k = Array.unsafe_get keys !i in
    k >= 0 && k <> key
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let ok = t.lk_key and os = t.lk_snd and orc = t.lk_rcv in
  let cap = 2 * Array.length ok in
  t.lk_key <- Array.make cap (-1);
  t.lk_snd <- Array.make cap t.no_sender;
  t.lk_rcv <- Array.make cap t.no_receiver;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t.lk_key k in
        t.lk_key.(j) <- k;
        t.lk_snd.(j) <- os.(i);
        t.lk_rcv.(j) <- orc.(i)
      end)
    ok

(* the slot of link (src, dst), inserted if absent *)
let link_slot t ~src ~dst =
  if 2 * (t.lk_n + 1) > Array.length t.lk_key then grow t;
  let key = (src * t.nodes) + dst in
  let i = probe t.lk_key key in
  if t.lk_key.(i) < 0 then begin
    t.lk_key.(i) <- key;
    t.lk_n <- t.lk_n + 1
  end;
  i

(* the current incarnation's sender of link (src, dst), or [no_sender] *)
let find_sender t ~src ~dst =
  let s = t.lk_snd.(probe t.lk_key ((src * t.nodes) + dst)) in
  if s.s_epoch = t.epochs.(src) then s else t.no_sender

(* ------------------------------------------------------------------ *)
(* sending                                                             *)
(* ------------------------------------------------------------------ *)

let jittered t d =
  if t.config.rto_jitter <= 0.0 then d
  else d *. (1.0 +. Prng.float t.jitter_rng t.config.rto_jitter)

let transmit_data t ~src ~dst s seq =
  Simnet.send t.net ~src ~dst
    (Data { epoch = s.s_epoch; seq; payload = s.win.(seq land (Array.length s.win - 1)) })

let give_up t ~src ~dst s =
  s.s_dead <- true;
  s.base <- s.next_seq;
  t.peers_declared_dead <- t.peers_declared_dead + 1;
  t.on_peer_dead ~node:src ~peer:dst

let arm_timer t s =
  if not s.timer_armed then begin
    s.timer_armed <- true;
    Simnet.schedule t.net ~delay:(jittered t s.rto) s.fire
  end

(* go-back-N: resend the whole window, lowest seq first *)
let resend t ~src ~dst s =
  s.rto <- Float.min (s.rto *. t.config.rto_backoff) t.config.rto_max;
  for seq = s.base to s.next_seq - 1 do
    t.retransmissions <- t.retransmissions + 1;
    transmit_data t ~src ~dst s seq
  done;
  arm_timer t s

(* Retransmission timer of link (src, dst).  A record replaced by a
   crash-restart carries an older epoch: its timers are no-ops. *)
let on_timer t ~src ~dst s =
  if s.s_epoch = t.epochs.(src) then begin
    s.timer_armed <- false;
    if (not s.s_dead) && s.next_seq > s.base && Simnet.is_up t.net src then begin
      if s.retries >= t.config.max_retries then begin
        if t.hold ~node:src ~peer:dst then begin
          (* a scheduled outage explains the silence: suspect the
             link instead of declaring the peer dead, refresh the
             retry budget, and keep the window retransmitting at
             the capped RTO so the stream resumes by itself once
             the network heals — re-announce, not amnesia *)
          if not s.s_suspected then begin
            s.s_suspected <- true;
            t.links_suspected <- t.links_suspected + 1
          end;
          t.give_ups_held <- t.give_ups_held + 1;
          s.retries <- 0;
          resend t ~src ~dst s
        end
        else give_up t ~src ~dst s
      end
      else begin
        s.retries <- s.retries + 1;
        resend t ~src ~dst s
      end
    end
  end

let sender_state t ~src ~dst =
  let i = link_slot t ~src ~dst in
  let s = t.lk_snd.(i) in
  if s.s_epoch = t.epochs.(src) then s
  else begin
    (* first use, or a stale pre-restart stream: start a fresh one *)
    let s = new_sender ~epoch:t.epochs.(src) ~rto:t.config.rto_initial in
    s.fire <- (fun () -> on_timer t ~src ~dst s);
    t.lk_snd.(i) <- s;
    s
  end

(* append [payload] at [next_seq], doubling the ring when it is full *)
let push s payload =
  let len = Array.length s.win in
  if s.next_seq - s.base = len then begin
    let cap = max 2 (2 * len) in
    let win = Array.make cap payload in
    for seq = s.base to s.next_seq - 1 do
      win.(seq land (cap - 1)) <- s.win.(seq land (len - 1))
    done;
    s.win <- win
  end;
  s.win.(s.next_seq land (Array.length s.win - 1)) <- payload;
  s.next_seq <- s.next_seq + 1

let send t ~src ~dst payload =
  if Simnet.is_up t.net src then begin
    let s = sender_state t ~src ~dst in
    if not s.s_dead then begin
      let seq = s.next_seq in
      push s payload;
      t.data_sent <- t.data_sent + 1;
      transmit_data t ~src ~dst s seq;
      arm_timer t s
    end
  end

(* ------------------------------------------------------------------ *)
(* receiving                                                           *)
(* ------------------------------------------------------------------ *)

let send_ack t ~src ~dst ~epoch ~cum =
  t.acks_sent <- t.acks_sent + 1;
  Simnet.send t.net ~src ~dst (Ack { epoch; cum })

let receiver_state t ~src ~dst ~epoch =
  let i = link_slot t ~src ~dst in
  let r = t.lk_rcv.(i) in
  if r.r_owner = t.epochs.(dst) then r
  else begin
    let r = new_receiver ~owner:t.epochs.(dst) ~epoch in
    t.lk_rcv.(i) <- r;
    r
  end

(* is [seq] in the out-of-order buffer? *)
let buffered r seq =
  let rec scan k = k < r.ooo_n && (r.ooo_seq.(k) = seq || scan (k + 1)) in
  scan 0

(* insert [seq] (not yet buffered) at its sorted position *)
let buffer r seq payload =
  if r.ooo_n = Array.length r.ooo_seq then begin
    let cap = max 4 (2 * r.ooo_n) in
    let sq = Array.make cap 0 and py = Array.make cap payload in
    Array.blit r.ooo_seq 0 sq 0 r.ooo_n;
    Array.blit r.ooo_pay 0 py 0 r.ooo_n;
    r.ooo_seq <- sq;
    r.ooo_pay <- py
  end;
  let j = ref r.ooo_n in
  while !j > 0 && r.ooo_seq.(!j - 1) > seq do
    r.ooo_seq.(!j) <- r.ooo_seq.(!j - 1);
    r.ooo_pay.(!j) <- r.ooo_pay.(!j - 1);
    decr j
  done;
  r.ooo_seq.(!j) <- seq;
  r.ooo_pay.(!j) <- payload;
  r.ooo_n <- r.ooo_n + 1

let handle_data t ~src ~dst ~epoch ~seq payload =
  let r = receiver_state t ~src ~dst ~epoch in
  if epoch < r.r_epoch then () (* frame from a dead incarnation of the peer *)
  else begin
    if epoch > r.r_epoch then begin
      (* peer restarted: its stream starts over from seq 0 *)
      r.r_epoch <- epoch;
      r.cum <- -1;
      r.ooo_n <- 0
    end;
    if seq <= r.cum || buffered r seq then begin
      (* duplicate (network-level or retransmission): suppress, but
         re-ack so the sender stops retransmitting *)
      t.duplicates_suppressed <- t.duplicates_suppressed + 1;
      send_ack t ~src:dst ~dst:src ~epoch ~cum:r.cum
    end
    else begin
      if seq > r.cum + 1 then buffer r seq payload
      else begin
        (* in order: deliver it, then the contiguous prefix of the
           buffer behind it *)
        r.cum <- seq;
        t.on_deliver ~src ~dst payload;
        let k = ref 0 in
        while !k < r.ooo_n && r.ooo_seq.(!k) = r.cum + 1 do
          r.cum <- r.cum + 1;
          t.on_deliver ~src ~dst r.ooo_pay.(!k);
          incr k
        done;
        if !k > 0 then begin
          Array.blit r.ooo_seq !k r.ooo_seq 0 (r.ooo_n - !k);
          Array.blit r.ooo_pay !k r.ooo_pay 0 (r.ooo_n - !k);
          r.ooo_n <- r.ooo_n - !k
        end
      end;
      send_ack t ~src:dst ~dst:src ~epoch ~cum:r.cum
    end
  end

let handle_ack t ~src ~dst ~epoch ~cum =
  (* [src] acked stream (dst -> src); the window lives at [dst] *)
  let s = find_sender t ~src:dst ~dst:src in
  if s.s_epoch = epoch && (not s.s_dead) && s.base <= cum && s.base < s.next_seq then begin
    s.base <- min (cum + 1) s.next_seq;
    (* forward progress: the peer is alive, reset the backoff *)
    s.retries <- 0;
    s.rto <- t.config.rto_initial;
    if s.s_suspected then begin
      (* the first ACK through a healed link clears the suspicion *)
      s.s_suspected <- false;
      t.links_resumed <- t.links_resumed + 1
    end
  end

(* the RTO jitter draws from its own stream, so it never shifts the
   network's fault coins *)
let jitter_seed = 0x7A5

let create ?(config = default_config) ?(hold = fun ~node:_ ~peer:_ -> false) net ~on_deliver
    ~on_peer_dead =
  validate_config config;
  let no_sender = new_sender ~epoch:(-1) ~rto:0.0 in
  let no_receiver = new_receiver ~owner:(-1) ~epoch:(-1) in
  let nodes = max (Simnet.node_count net) 1 in
  let t =
    {
      net;
      config;
      jitter_rng = Prng.create jitter_seed;
      nodes;
      epochs = Array.make nodes 0;
      lk_key = Array.make 64 (-1);
      lk_snd = Array.make 64 no_sender;
      lk_rcv = Array.make 64 no_receiver;
      lk_n = 0;
      no_sender;
      no_receiver;
      on_deliver;
      on_peer_dead;
      hold;
      data_sent = 0;
      retransmissions = 0;
      acks_sent = 0;
      duplicates_suppressed = 0;
      peers_declared_dead = 0;
      links_suspected = 0;
      links_resumed = 0;
      give_ups_held = 0;
    }
  in
  Simnet.set_handler net (fun ~src ~dst frame ->
      match frame with
      | Data { epoch; seq; payload } -> handle_data t ~src ~dst ~epoch ~seq payload
      | Ack { epoch; cum } -> handle_ack t ~src ~dst ~epoch ~cum);
  t

let restart_node t v =
  if v < 0 || v >= Array.length t.epochs then
    invalid_arg "Transport.restart_node: node out of range";
  (* volatile transport state is lost with the crash; the epoch bump is
     the non-volatile part (think boot counter) that lets peers tell old
     frames from new ones.  It also makes every sender and receiver the
     node held stale: the next use starts a fresh one *)
  t.epochs.(v) <- t.epochs.(v) + 1

let peer_dead t ~node ~peer = (find_sender t ~src:node ~dst:peer).s_dead

let data_sent t = t.data_sent
let retransmissions t = t.retransmissions
let acks_sent t = t.acks_sent
let duplicates_suppressed t = t.duplicates_suppressed
let peers_declared_dead t = t.peers_declared_dead
let links_suspected t = t.links_suspected
let links_resumed t = t.links_resumed
let give_ups_held t = t.give_ups_held
let frames_sent t = t.data_sent + t.retransmissions + t.acks_sent
