(* Calendar queue over (at, seq) keys with an exact total order.

   Layout: nb buckets (a power of two) of width w; an event at time
   [at] belongs to epoch floor(at / w) and lives in bucket
   (epoch mod nb), a linked list through one pool of slots.  The wheel
   maintains three invariants around [cur_epoch], the epoch currently
   (or last) drained:

   - every event with epoch <= cur_epoch is in the sorted run or the
     aux heap (never in a bucket);
   - bucketed events have epoch in (cur_epoch, cur_epoch + nb], so one
     bucket holds exactly one epoch (a half-open interval of length nb
     meets each residue class once) and window collection takes the
     whole bucket with no filtering;
   - every event beyond the horizon (epoch > cur_epoch + nb) is in the
     overflow heap; advancing the window compares the heap's head with
     the buckets and migrates entries back under the horizon into
     their buckets.  (A retune may leave entries under the horizon in
     the heap; the same comparison still takes them in order.)

   Draining sorts one bucket into a flat run (three parallel arrays)
   and walks it with a head index; insertions that land at or before
   the draining epoch go to the aux heap, and [pop_until] takes the
   smaller of the run head and the aux minimum, so the pop order is
   exactly the (at, seq) order a binary heap would produce.

   The width retunes itself (see [retune]): a window that holds
   thousands of events costs a quicksort of thousands, one that holds
   none costs a wasted bucket probe, and no fixed width suits every
   delay model and population. *)

(* (at1, seq1) <= (at2, seq2).  Typed and inlined so the comparison is
   two float compares and an int compare in registers; timestamps are
   finite (see [add]), so [a1 <= a2] after [not (a1 < a2)] means
   equality. *)
let[@inline] key_le (a1 : float) (s1 : int) (a2 : float) (s2 : int) =
  a1 < a2 || (a1 <= a2 && s1 <= s2)

(* ------------------------------------------------------------------ *)
(* inline binary min-heap on parallel arrays                           *)
(* ------------------------------------------------------------------ *)

type heap = {
  mutable h_at : float array;
  mutable h_seq : int array;
  mutable h_pay : int array;
  mutable h_len : int;
}

let heap_create () = { h_at = [||]; h_seq = [||]; h_pay = [||]; h_len = 0 }

let heap_grow h =
  let cap = max 8 (2 * Array.length h.h_at) in
  let at = Array.make cap 0.0 and sq = Array.make cap 0 and pl = Array.make cap 0 in
  Array.blit h.h_at 0 at 0 h.h_len;
  Array.blit h.h_seq 0 sq 0 h.h_len;
  Array.blit h.h_pay 0 pl 0 h.h_len;
  h.h_at <- at;
  h.h_seq <- sq;
  h.h_pay <- pl

let heap_push h at seq pay =
  if h.h_len = Array.length h.h_at then heap_grow h;
  let i = ref h.h_len in
  h.h_len <- h.h_len + 1;
  h.h_at.(!i) <- at;
  h.h_seq.(!i) <- seq;
  h.h_pay.(!i) <- pay;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if key_le h.h_at.(p) h.h_seq.(p) h.h_at.(!i) h.h_seq.(!i) then continue := false
    else begin
      let ta = h.h_at.(p) and ts = h.h_seq.(p) and tp = h.h_pay.(p) in
      h.h_at.(p) <- h.h_at.(!i);
      h.h_seq.(p) <- h.h_seq.(!i);
      h.h_pay.(p) <- h.h_pay.(!i);
      h.h_at.(!i) <- ta;
      h.h_seq.(!i) <- ts;
      h.h_pay.(!i) <- tp;
      i := p
    end
  done

(* remove the root; the caller read (h_at.(0), h_seq.(0), h_pay.(0)) first *)
let heap_drop h =
  let n = h.h_len - 1 in
  h.h_len <- n;
  if n > 0 then begin
    h.h_at.(0) <- h.h_at.(n);
    h.h_seq.(0) <- h.h_seq.(n);
    h.h_pay.(0) <- h.h_pay.(n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && not (key_le h.h_at.(l) h.h_seq.(l) h.h_at.(r) h.h_seq.(r))
          then r
          else l
        in
        if key_le h.h_at.(!i) h.h_seq.(!i) h.h_at.(c) h.h_seq.(c) then
          continue := false
        else begin
          let ta = h.h_at.(c) and ts = h.h_seq.(c) and tp = h.h_pay.(c) in
          h.h_at.(c) <- h.h_at.(!i);
          h.h_seq.(c) <- h.h_seq.(!i);
          h.h_pay.(c) <- h.h_pay.(!i);
          h.h_at.(!i) <- ta;
          h.h_seq.(!i) <- ts;
          h.h_pay.(!i) <- tp;
          i := c
        end
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* in-place quicksort of parallel (at, seq, payload) arrays            *)
(* ------------------------------------------------------------------ *)

let swap3 at sq pl i j =
  let ta = at.(i) and ts = sq.(i) and tp = pl.(i) in
  at.(i) <- at.(j);
  sq.(i) <- sq.(j);
  pl.(i) <- pl.(j);
  at.(j) <- ta;
  sq.(j) <- ts;
  pl.(j) <- tp

let rec qsort3 at sq pl lo hi =
  if hi - lo < 12 then begin
    (* insertion sort for short spans *)
    for i = lo + 1 to hi do
      let ka = at.(i) and ks = sq.(i) and kp = pl.(i) in
      let j = ref (i - 1) in
      while !j >= lo && not (key_le at.(!j) sq.(!j) ka ks) do
        at.(!j + 1) <- at.(!j);
        sq.(!j + 1) <- sq.(!j);
        pl.(!j + 1) <- pl.(!j);
        decr j
      done;
      at.(!j + 1) <- ka;
      sq.(!j + 1) <- ks;
      pl.(!j + 1) <- kp
    done
  end
  else begin
    (* median-of-three pivot, moved to [hi]; Lomuto partition *)
    let mid = lo + ((hi - lo) / 2) in
    if not (key_le at.(lo) sq.(lo) at.(mid) sq.(mid)) then swap3 at sq pl lo mid;
    if not (key_le at.(mid) sq.(mid) at.(hi) sq.(hi)) then begin
      swap3 at sq pl mid hi;
      if not (key_le at.(lo) sq.(lo) at.(mid) sq.(mid)) then swap3 at sq pl lo mid
    end;
    swap3 at sq pl mid hi;
    let pa = at.(hi) and ps = sq.(hi) in
    let store = ref lo in
    for i = lo to hi - 1 do
      if key_le at.(i) sq.(i) pa ps then begin
        if i <> !store then swap3 at sq pl i !store;
        incr store
      end
    done;
    swap3 at sq pl !store hi;
    (* recurse into the smaller side first to bound the stack *)
    if !store - lo < hi - !store then begin
      qsort3 at sq pl lo (!store - 1);
      qsort3 at sq pl (!store + 1) hi
    end
    else begin
      qsort3 at sq pl (!store + 1) hi;
      qsort3 at sq pl lo (!store - 1)
    end
  end

(* ------------------------------------------------------------------ *)
(* the wheel                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable w : float; (* bucket width *)
  mutable inv_w : float; (* 1 / w: an event's epoch is floor (at * inv_w) *)
  mutable nb : int; (* a power of two *)
  (* bucketed events live in one slot pool of parallel arrays; each
     bucket is a linked list through [p_next], and free slots chain
     through it too, so bucketing allocates nothing per event *)
  mutable p_at : float array;
  mutable p_seq : int array;
  mutable p_pay : int array;
  mutable p_next : int array;
  mutable p_free : int; (* free-list head, -1 when the pool is full *)
  mutable b_head : int array; (* first slot of each bucket, -1 when empty *)
  mutable b_len : int array;
  mutable bucketed : int; (* events across all buckets *)
  mutable cur_epoch : int; (* epoch of the open (or last) run; -1 initially *)
  mutable r_at : float array; (* current run, sorted, consumed from r_head *)
  mutable r_seq : int array;
  mutable r_pay : int array;
  mutable r_len : int;
  mutable r_head : int;
  aux : heap; (* insertions at or before the draining epoch *)
  over : heap; (* events beyond the wheel horizon *)
  mutable size : int;
  (* occupancy observed since the last retune check: events in the
     windows opened, and epochs the window advanced over (at most nb per
     window, so one jump to a far-future timer cannot swamp the mean) *)
  mutable seen_events : int;
  mutable seen_epochs : int;
  (* out-params of [pop_until]; the timestamp lives in a 1-element float
     array so storing it never allocates a box *)
  last_at_cell : float array;
  mutable last_seq : int;
  mutable last_pay : int;
}

let pow2_at_least n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

let create ?(width = 0.25) ?(buckets = 64) () =
  if not (Float.is_finite width && width > 0.0) then
    invalid_arg "Event_wheel.create: width must be positive";
  if buckets < 2 then invalid_arg "Event_wheel.create: need at least 2 buckets";
  let buckets = pow2_at_least buckets in
  {
    w = width;
    inv_w = 1.0 /. width;
    nb = buckets;
    p_at = [||];
    p_seq = [||];
    p_pay = [||];
    p_next = [||];
    p_free = -1;
    b_head = Array.make buckets (-1);
    b_len = Array.make buckets 0;
    bucketed = 0;
    cur_epoch = -1;
    r_at = [||];
    r_seq = [||];
    r_pay = [||];
    r_len = 0;
    r_head = 0;
    aux = heap_create ();
    over = heap_create ();
    size = 0;
    seen_events = 0;
    seen_epochs = 0;
    last_at_cell = Array.make 1 0.0;
    last_seq = 0;
    last_pay = 0;
  }

let size t = t.size
let width t = t.w

(* epoch of a timestamp, saturating far enough below max_int that
   [epoch - cur_epoch] and [epoch + nb] never overflow.  Multiplying by
   the reciprocal is monotone in [at], which is all the order needs. *)
let epoch t at =
  let q = at *. t.inv_w in
  if q >= 1e18 then 0x3FFFFFFFFFFFFF else int_of_float q

let pool_grow t =
  let old = Array.length t.p_at in
  let cap = Int.max 64 (2 * old) in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 old;
    a'
  in
  t.p_at <- grow t.p_at 0.0;
  t.p_seq <- grow t.p_seq 0;
  t.p_pay <- grow t.p_pay 0;
  t.p_next <- grow t.p_next (-1);
  for i = old to cap - 2 do
    t.p_next.(i) <- i + 1
  done;
  t.p_free <- old

(* link slot [s] into bucket [b] *)
let[@inline] bucket_link t b s =
  t.p_next.(s) <- t.b_head.(b);
  t.b_head.(b) <- s;
  t.b_len.(b) <- t.b_len.(b) + 1;
  t.bucketed <- t.bucketed + 1

let[@inline] slot_free t s =
  t.p_next.(s) <- t.p_free;
  t.p_free <- s

(* epochs are non-negative and nb a power of two *)
let[@inline] bucket_of t e = e land (t.nb - 1)

let bucket_push t b at seq pay =
  if t.p_free < 0 then pool_grow t;
  let s = t.p_free in
  t.p_free <- t.p_next.(s);
  t.p_at.(s) <- at;
  t.p_seq.(s) <- seq;
  t.p_pay.(s) <- pay;
  bucket_link t b s

(* route an event that is strictly past cur_epoch *)
let place_future t e at seq pay =
  if e - t.cur_epoch <= t.nb then bucket_push t (bucket_of t e) at seq pay
  else heap_push t.over at seq pay

let add t ~at ~seq pay =
  if not (Float.is_finite at) || at < 0.0 then
    invalid_arg "Event_wheel.add: time must be finite and non-negative";
  let e = epoch t at in
  if e <= t.cur_epoch then heap_push t.aux at seq pay
  else place_future t e at seq pay;
  t.size <- t.size + 1

(* Rebuild the bucket array with [nb'] buckets, re-routing every
   bucketed event.  With an unchanged width, cur_epoch stays (shrinking
   may push events back over the horizon into the overflow heap).  A
   new width renumbers every epoch, so cur_epoch restarts just below
   the earliest stored event: everything left is then strictly past
   it, which is the invariant [add] and [advance] rely on.  Overflow
   entries stay in their heap even if they now fall under the horizon;
   [advance] compares the heap's head against the buckets and migrates
   it, so they still come out in order.  Precondition: run and aux are
   empty. *)
let rebuild t ~width nb' =
  let old_head = t.b_head in
  if not (Float.equal width t.w) then begin
    let lo = ref infinity in
    if t.over.h_len > 0 then lo := t.over.h_at.(0);
    Array.iter
      (fun h ->
        let s = ref h in
        while !s >= 0 do
          lo := Float.min !lo t.p_at.(!s);
          s := t.p_next.(!s)
        done)
      old_head;
    t.w <- width;
    t.inv_w <- 1.0 /. width;
    (* the wheel holds at least one event, so [lo] is finite *)
    t.cur_epoch <- epoch t !lo - 1
  end;
  t.nb <- nb';
  t.b_head <- Array.make nb' (-1);
  t.b_len <- Array.make nb' 0;
  t.bucketed <- 0;
  Array.iter
    (fun h ->
      let s = ref h in
      while !s >= 0 do
        let i = !s in
        s := t.p_next.(i);
        let e = epoch t t.p_at.(i) in
        if e - t.cur_epoch <= nb' then bucket_link t (bucket_of t e) i
        else begin
          heap_push t.over t.p_at.(i) t.p_seq.(i) t.p_pay.(i);
          slot_free t i
        end
      done)
    old_head

(* Width retuning, after Brown's calendar queue (CACM 31(10), 1988).
   The width aims at [target] events per window: a window is one sort
   plus a bucket scan, so much fuller windows pay O(log window) per
   event in the sort and much emptier ones pay probes for nothing.
   [advance] reports each window it is about to open ([next], whose
   bucket already holds its events); once the windows reported since
   the last check reach a quarter of the wheel's population (and
   [min_sample]), their mean occupancy per epoch is compared with the
   target.  Off by more than [slack] either way, the width is rescaled
   by the ratio and every event re-bucketed, and [retune] returns
   [true] so that [advance] looks for the next window again.  Each
   O(size) rebuild is thus paid for by at least size / 4 events, and
   the statistics are the wheel's own.  Run and aux are empty whenever [advance] runs, so re-bucketing moves no
   event past another.  The width stays within [min_width, max_width]:
   any width is correct, but equal-timestamp bursts would otherwise
   drive it towards zero. *)
let target = 4.0
let slack = 4.0
let min_sample = 256
let min_width = 1e-12
let max_width = 1e12

let retune t next =
  t.seen_events <- t.seen_events + Int.max 1 t.b_len.(bucket_of t next);
  t.seen_epochs <- t.seen_epochs + Int.min (next - t.cur_epoch) t.nb;
  if t.seen_events < min_sample || 4 * t.seen_events < t.size then false
  else begin
    let mean = float_of_int t.seen_events /. float_of_int t.seen_epochs in
    t.seen_events <- 0;
    t.seen_epochs <- 0;
    if mean <= target *. slack && mean *. slack >= target then false
    else begin
      let width = Float.min max_width (Float.max min_width (t.w *. target /. mean)) in
      (* about two events per bucket at the new width *)
      rebuild t ~width (pow2_at_least (Int.max 64 ((t.bucketed + t.over.h_len) / 2)));
      true
    end
  end

let run_append t at seq pay =
  if t.r_len = Array.length t.r_at then begin
    let cap = max 16 (2 * t.r_len) in
    let a = Array.make cap 0.0 and s = Array.make cap 0 and p = Array.make cap 0 in
    Array.blit t.r_at 0 a 0 t.r_len;
    Array.blit t.r_seq 0 s 0 t.r_len;
    Array.blit t.r_pay 0 p 0 t.r_len;
    t.r_at <- a;
    t.r_seq <- s;
    t.r_pay <- p
  end;
  t.r_at.(t.r_len) <- at;
  t.r_seq.(t.r_len) <- seq;
  t.r_pay.(t.r_len) <- pay;
  t.r_len <- t.r_len + 1

(* the next populated epoch among buckets and overflow; size > 0 with
   empty run and aux means one of them holds something *)
let next_epoch t =
  let from_bucket =
    if t.bucketed = 0 then -1
    else begin
      let found = ref (-1) in
      let k = ref 1 in
      while !found < 0 && !k <= t.nb do
        let e = t.cur_epoch + !k in
        if t.b_head.(bucket_of t e) >= 0 then found := e;
        incr k
      done;
      !found
    end
  in
  let from_over = if t.over.h_len = 0 then -1 else epoch t t.over.h_at.(0) in
  if from_bucket < 0 then from_over
  else if from_over < 0 then from_bucket
  else Int.min from_bucket from_over

(* open the next window: migrate overflow entries back under the new
   horizon, collect the next epoch's bucket into the run and sort it.
   Precondition: run and aux are empty, size > 0. *)
let advance t =
  let stored = t.bucketed + t.over.h_len in
  if stored > 4 * t.nb then rebuild t ~width:t.w (2 * t.nb)
  else if t.nb > 64 && stored < t.nb / 8 then rebuild t ~width:t.w (t.nb / 2);
  let next = next_epoch t in
  t.cur_epoch <- (if retune t next then next_epoch t else next);
  t.r_len <- 0;
  t.r_head <- 0;
  (* collect the bucket BEFORE migrating overflow: an overflow entry at
     epoch exactly cur_epoch + nb maps to this same bucket slot, and
     must land in the now-empty bucket, not in the current run *)
  let b = bucket_of t t.cur_epoch in
  let s = ref t.b_head.(b) in
  while !s >= 0 do
    let i = !s in
    run_append t t.p_at.(i) t.p_seq.(i) t.p_pay.(i);
    s := t.p_next.(i);
    slot_free t i
  done;
  t.b_head.(b) <- -1;
  t.bucketed <- t.bucketed - t.b_len.(b);
  t.b_len.(b) <- 0;
  while t.over.h_len > 0 && epoch t t.over.h_at.(0) - t.cur_epoch <= t.nb do
    let at = t.over.h_at.(0) and seq = t.over.h_seq.(0) and pay = t.over.h_pay.(0) in
    heap_drop t.over;
    let e = epoch t at in
    if e = t.cur_epoch then run_append t at seq pay
    else bucket_push t (bucket_of t e) at seq pay
  done;
  if t.r_len > 1 then qsort3 t.r_at t.r_seq t.r_pay 0 (t.r_len - 1)

(* true when the next event should come from the run rather than the
   aux heap *)
let run_first t =
  t.r_head < t.r_len
  && (t.aux.h_len = 0
     || key_le t.r_at.(t.r_head) t.r_seq.(t.r_head) t.aux.h_at.(0) t.aux.h_seq.(0))

(* The one pop: the minimum is the run head or the aux root, whichever
   [run_first] picks; it leaves only when its time is within
   [horizon].  Out-params instead of a returned tuple keep the pop
   allocation-free.  A refused pop may still have opened the next
   window, which moves no event past another. *)
let rec pop_until t horizon =
  if t.size = 0 then false
  else if t.r_head >= t.r_len && t.aux.h_len = 0 then begin
    advance t;
    pop_until t horizon
  end
  else if run_first t then begin
    let i = t.r_head in
    if t.r_at.(i) > horizon then false
    else begin
      t.size <- t.size - 1;
      t.r_head <- i + 1;
      t.last_at_cell.(0) <- t.r_at.(i);
      t.last_seq <- t.r_seq.(i);
      t.last_pay <- t.r_pay.(i);
      true
    end
  end
  else if t.aux.h_at.(0) > horizon then false
  else begin
    t.size <- t.size - 1;
    t.last_at_cell.(0) <- t.aux.h_at.(0);
    t.last_seq <- t.aux.h_seq.(0);
    t.last_pay <- t.aux.h_pay.(0);
    heap_drop t.aux;
    true
  end

let pop_into t = pop_until t infinity
let last_at t = t.last_at_cell.(0)
let last_seq t = t.last_seq
let last_pay t = t.last_pay

let footprint_words t =
  let tri len = 3 * len in
  (2 * t.nb) + (4 * Array.length t.p_at)
  + tri (Array.length t.r_at)
  + tri (Array.length t.aux.h_at)
  + tri (Array.length t.over.h_at)
