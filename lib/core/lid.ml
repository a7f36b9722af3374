(* owp-lint: pure — the LID transition relation is a function of
   explicit state; no I/O, clocks, or ambient randomness may creep in *)
module Violation = Owp_check.Violation
module Explore = Owp_check.Explore

type message = Prop | Rej

(* The protocol state of all nodes, laid over the graph's CSR.  Node
   i's candidates are its adjacency row, slots [off.(i) .. off.(i+1) -
   1], so a candidate is its slot and the candidate list is the
   graph's own [nbr] row.  The paper's sets — U_i, P_i (all proposals,
   locked included), P_i \ K_i (= pending), A_i and K_i — are flag bits
   in one byte per slot.  [order] holds every row's weight list as
   slots, heaviest first, in the row's own slot range; neighbours a
   custom weighting leaves out carry the [fl_out] bit and trail the
   list, outside U from the start, so the scan never proposes to them.
   Proposals from strangers — non-neighbours, possible only from a
   misbehaving peer — land in the per-node [extra_a] lists. *)
type state = {
  graph : Graph.t;
  quota : int array; (* min (b_i, deg i): the bootstrap's proposals *)
  order : int array; (* weight lists as slots, per row; never mutated *)
  flags : Bytes.t; (* U/P/pending/A/K bits, delivery marks, outside bit *)
  n_u : int array; (* |U_i| *)
  n_pending : int array; (* |P_i \ K_i| *)
  ptr : int array; (* scan position in [order] for topRanked(U \ P) *)
  finished : bool array;
  memo : int array; (* the last slot found for node i, or -1 *)
  extra_a : int list array; (* A_i \ row: proposing strangers *)
}

let fl_u = 1 (* U_i: still a candidate *)
let fl_p = 2 (* P_i: proposed to (locked included) *)
let fl_w = 4 (* P_i \ K_i: proposal awaiting an answer *)
let fl_a = 8 (* A_i: proposed to us *)
let fl_k = 16 (* K_i: locked *)

(* delivery marks, outside the protocol state: a PROP / a REJ from this
   candidate reached us at least once (see [mark_delivery]) *)
let fl_got_prop = 32
let fl_got_rej = 64

(* a neighbour the weighting leaves out: never in U, never proposed to,
   its deliveries [`Outside] *)
let fl_out = 128

let get st slot = Char.code (Bytes.unsafe_get st.flags slot)
let set st slot f = Bytes.unsafe_set st.flags slot (Char.unsafe_chr f)

(* slot of neighbour [id] in [i]'s row, or -1.  The last slot found per
   node is memoised: the Stack marks a delivery and then delivers it,
   so the repeat lookup skips the search.  A memo entry is checked
   against [nbr] before use, so it never needs invalidating. *)
let slot_of st i id =
  let g = st.graph in
  let nbr = g.Graph.nbr in
  let m = st.memo.(i) in
  if m >= 0 && Array.unsafe_get nbr m = id then m
  else begin
    let lo = ref g.Graph.off.(i) and hi = ref (g.Graph.off.(i + 1) - 1) in
    let res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = Array.unsafe_get nbr mid in
      if x = id then res := mid else if x < id then lo := mid + 1 else hi := mid - 1
    done;
    if !res >= 0 then st.memo.(i) <- !res;
    !res
  end

(* ------------------------------------------------------------------ *)
(* transition relation (Alg. 1), shared by the Stack runtime and the   *)
(* exhaustive interleaving explorer                                     *)
(* ------------------------------------------------------------------ *)

(* line 15–16: all proposals answered — decline everyone left, in
   ascending id order (rows are sorted by neighbour) *)
let check_done st emit i =
  if (not st.finished.(i)) && st.n_pending.(i) = 0 then begin
    if st.n_u.(i) > 0 then begin
      let g = st.graph in
      for slot = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
        let f = get st slot in
        if f land fl_u <> 0 then begin
          set st slot (f land lnot fl_u);
          emit i g.Graph.nbr.(slot) Rej
        end
      done
    end;
    st.n_u.(i) <- 0;
    st.finished.(i) <- true
  end

(* line 12–14: mutual proposal — lock the connection at [slot] *)
let lock st i slot =
  let f = get st slot in
  if f land fl_u <> 0 then st.n_u.(i) <- st.n_u.(i) - 1;
  if f land fl_w <> 0 then st.n_pending.(i) <- st.n_pending.(i) - 1;
  set st slot (f land lnot (fl_u lor fl_a lor fl_w) lor fl_k)

(* lines 9–11: propose to the next-ranked neighbour still in U \ P *)
let propose_next st emit i =
  let hi = st.graph.Graph.off.(i + 1) in
  let p = ref st.ptr.(i) and slot = ref (-1) in
  while !slot < 0 && !p < hi do
    let s = Array.unsafe_get st.order !p in
    let f = get st s in
    if f land fl_u <> 0 && f land fl_p = 0 then slot := s else incr p
  done;
  st.ptr.(i) <- !p;
  let slot = !slot in
  if slot >= 0 then begin
    let f = get st slot in
    set st slot (f lor fl_p lor fl_w);
    st.n_pending.(i) <- st.n_pending.(i) + 1;
    emit i st.graph.Graph.nbr.(slot) Prop;
    (* the candidate may have proposed to us already *)
    if f land fl_a <> 0 then lock st i slot
  end

(* Lines 1–3's weight lists, one insertion sort per row (rows are short:
   16 entries on average).  The key of slot s is [keys.(s)] when
   [by_slot], else its edge's [keys.(eid.(s))]; a NaN key leaves the
   neighbour out.  The order is exactly Weights.compare_edges, heaviest
   first: within one row every edge has i as an endpoint, so its
   identity tie-break (lower endpoint, upper endpoint, id, all
   descending) reduces to the larger neighbour first, and rows are
   sorted by neighbour.  Slots are inserted from the row's end, so a tie
   keeps the earlier-inserted (larger) neighbour in front and equal keys
   cost no shifts.  [>] agrees with [Float.compare] on non-NaN keys,
   including -0.0 = 0.0.  Fills [order] and [flags] and returns |U_i|
   per node. *)
let sort_rows g ~keys ~by_slot ~order ~flags =
  let n = Graph.node_count g and off = g.Graph.off and eid = g.Graph.eid in
  let sorted = Array.make (Graph.max_degree g) 0.0 in
  Array.init n (fun i ->
      let o = off.(i) in
      let listed = ref 0 and tail = ref (off.(i + 1) - 1) in
      for s = off.(i + 1) - 1 downto o do
        let x = if by_slot then keys.(s) else keys.(eid.(s)) in
        if Float.is_nan x then begin
          Bytes.unsafe_set flags s (Char.unsafe_chr fl_out);
          order.(!tail) <- s;
          decr tail
        end
        else begin
          let j = ref !listed in
          while !j > 0 && x > Array.unsafe_get sorted (!j - 1) do
            Array.unsafe_set sorted !j (Array.unsafe_get sorted (!j - 1));
            Array.unsafe_set order (o + !j) (Array.unsafe_get order (o + !j - 1));
            decr j
          done;
          Array.unsafe_set sorted !j x;
          Array.unsafe_set order (o + !j) s;
          incr listed
        end
      done;
      !listed)

let init ?perceived w ~capacity =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  Array.iter (fun b -> if b < 0 then invalid_arg "Lid.init: negative capacity") capacity;
  let quota = Array.mapi (fun i b -> min b (Graph.degree g i)) capacity in
  let slots = Array.length g.Graph.nbr in
  let order = Array.make slots 0 and flags = Bytes.make slots (Char.chr fl_u) in
  let n_u =
    match perceived with
    | None -> sort_rows g ~keys:(Weights.unsafe_weights w) ~by_slot:false ~order ~flags
    | Some p ->
        if Array.length p <> slots then invalid_arg "Lid.init: perceived arity mismatch";
        sort_rows g ~keys:p ~by_slot:true ~order ~flags
  in
  {
    graph = g;
    quota;
    order;
    flags;
    n_u;
    n_pending = Array.make n 0;
    ptr = Array.sub g.Graph.off 0 n;
    finished = Array.make n false;
    memo = Array.make n (-1);
    extra_a = Array.make n [];
  }

(* lines 1–3: initial proposals to the top b_i of the weight list, each
   by the scan later proposals use (no candidate has proposed yet, so
   none locks) *)
let start st ~emit =
  for i = 0 to Graph.node_count st.graph - 1 do
    for _ = 1 to st.quota.(i) do
      propose_next st emit i
    done;
    check_done st emit i
  done

(* the transition itself, parameterised on the send sink [emit src dst
   m]: the Stack runtime passes one closure for the whole run (the hot
   path allocates nothing per send), the explorer a list builder *)
let deliver st ~src ~dst m ~emit =
  let i = dst and u = src in
  if not st.finished.(i) then begin
    (match m with
    | Prop ->
        let slot = slot_of st i u in
        if slot >= 0 then begin
          (* an outside neighbour's proposal is recorded in A_i but can
             never lock: we never proposed to it *)
          let f = get st slot in
          set st slot (f lor fl_a);
          if f land fl_w <> 0 then lock st i slot
        end
        else if not (List.mem u st.extra_a.(i)) then st.extra_a.(i) <- u :: st.extra_a.(i)
    | Rej ->
        let slot = slot_of st i u in
        if slot >= 0 then begin
          let f = get st slot in
          if f land fl_u <> 0 then begin
            set st slot (f land lnot fl_u);
            st.n_u.(i) <- st.n_u.(i) - 1
          end;
          let f = get st slot in
          if f land fl_w <> 0 then begin
            set st slot (f land lnot fl_w);
            st.n_pending.(i) <- st.n_pending.(i) - 1;
            (* u stays in P_i: it was proposed to and must not be
               proposed to again *)
            propose_next st emit i
          end
        end);
    check_done st emit i
  end
(* a finished node already declined everyone still unanswered, so a
   late PROP needs no reply and a late REJ changes nothing *)

(* ------------------------------------------------------------------ *)
(* observations                                                         *)
(* ------------------------------------------------------------------ *)

let mark_delivery st ~src ~dst m =
  let slot = slot_of st dst src in
  if slot < 0 then `Outside
  else begin
    let f = get st slot in
    if f land fl_out <> 0 then `Outside
    else begin
      let bit = match m with Prop -> fl_got_prop | Rej -> fl_got_rej in
      if f land bit <> 0 then `Repeat
      else begin
        set st slot (f lor bit);
        `First
      end
    end
  end

let quiesced st = Array.for_all Fun.id st.finished

let awaiting_reply st ~node ~peer =
  let slot = slot_of st node peer in
  slot >= 0 && get st slot land fl_w <> 0

(* node i's neighbours whose slot carries [flag], ascending *)
let flagged st i flag =
  let g = st.graph in
  let out = ref [] in
  for slot = g.Graph.off.(i + 1) - 1 downto g.Graph.off.(i) do
    if get st slot land flag <> 0 then out := g.Graph.nbr.(slot) :: !out
  done;
  !out

let locks st i = flagged st i fl_k

let unterminated_nodes st =
  let out = ref [] in
  for i = Array.length st.finished - 1 downto 0 do
    if not st.finished.(i) then out := i :: !out
  done;
  !out

let quiescence_violations st =
  List.map
    (fun i ->
      Violation.v ~checker:"lid-quiescence" (Violation.Node i)
        ~expected:"all proposals answered and U_i emptied (Lemma 5)"
        ~actual:
          (Printf.sprintf "%d unanswered proposal(s), %d candidate(s) left in U_i"
             st.n_pending.(i) st.n_u.(i)))
    (unterminated_nodes st)

(* Anytime cutoff (Floréen et al.: blocking pairs shrink with rounds,
   so a budgeted run serves a principled partial matching).  Freezing
   must not go through [deliver]: feeding synthetic REJs one at a time
   would re-enter [propose_next] and mint NEW pendings (and possibly
   locks) after the budget expired.  Instead both endpoints of every
   tentative proposal are released atomically — pendings cleared,
   candidate sets emptied, every node marked finished — so no phantom
   slot survives at either end and no post-cutoff cascade starts.
   Mutual locks are untouched: the served matching is exactly
   [locked_edge_ids].  Returns the released (proposer, peer) pairs,
   ascending. *)
let freeze st =
  let g = st.graph in
  let released = ref [] in
  for i = 0 to Graph.node_count g - 1 do
    if not st.finished.(i) then begin
      for slot = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
        let f = get st slot in
        if f land fl_w <> 0 then released := (i, g.Graph.nbr.(slot)) :: !released;
        if f land (fl_w lor fl_u) <> 0 then set st slot (f land lnot (fl_w lor fl_u))
      done;
      st.n_pending.(i) <- 0;
      st.n_u.(i) <- 0;
      st.finished.(i) <- true
    end
  done;
  List.rev !released

(* the matching from the locked sets, in one pass over the slots: an
   edge is served when both of its slots are locked.  K is symmetric on
   a clean run, and the intersection keeps the result feasible
   otherwise. *)
let locked_edge_ids st =
  let g = st.graph in
  let ends = Bytes.make (Graph.edge_count g) '\000' in
  for slot = 0 to Bytes.length st.flags - 1 do
    if get st slot land fl_k <> 0 then begin
      let e = g.Graph.eid.(slot) in
      Bytes.unsafe_set ends e (Char.unsafe_chr (Char.code (Bytes.unsafe_get ends e) + 1))
    end
  done;
  let ids = ref [] in
  for e = Bytes.length ends - 1 downto 0 do
    if Bytes.unsafe_get ends e = '\002' then ids := e :: !ids
  done;
  !ids

(* ------------------------------------------------------------------ *)
(* exploration support                                                  *)
(* ------------------------------------------------------------------ *)

(* [order] is never mutated and the memo is validated on every use, so
   both are shared *)
let copy_state st =
  {
    st with
    flags = Bytes.copy st.flags;
    n_u = Array.copy st.n_u;
    n_pending = Array.copy st.n_pending;
    ptr = Array.copy st.ptr;
    finished = Array.copy st.finished;
    extra_a = Array.copy st.extra_a;
  }

let add_ids buf ids =
  List.iter
    (fun k ->
      Buffer.add_string buf (string_of_int k);
      Buffer.add_char buf ',')
    ids

(* A_i spans the row's bits plus the proposing strangers *)
let a_ids st i =
  match st.extra_a.(i) with
  | [] -> flagged st i fl_a
  | extra -> List.sort Int.compare (List.rev_append extra (flagged st i fl_a))

(* the scan pointer is excluded on purpose: it only caches how far the
   monotone topRanked(U \ P) scan has advanced, and U only shrinks while
   P only grows, so states differing in ptr alone behave identically *)
let fingerprint st =
  let b = Buffer.create 256 in
  for i = 0 to Array.length st.finished - 1 do
    Buffer.add_char b (if st.finished.(i) then 'F' else 'a');
    Buffer.add_char b 'u';
    add_ids b (flagged st i fl_u);
    Buffer.add_char b 'p';
    add_ids b (flagged st i fl_p);
    Buffer.add_char b 'w';
    add_ids b (flagged st i fl_w);
    Buffer.add_char b 'x';
    add_ids b (a_ids st i);
    Buffer.add_char b 'k';
    add_ids b (flagged st i fl_k);
    Buffer.add_char b '|'
  done;
  Buffer.contents b

(* one transition's wire messages, in emission order *)
let collect f =
  let out = ref [] in
  f (fun src dst payload -> out := { Explore.src; dst; payload } :: !out);
  List.rev !out

let sends_of_step st ~src ~dst m = collect (fun emit -> deliver st ~src ~dst m ~emit)

let model w ~capacity =
  {
    Explore.init =
      (fun () ->
        let st = init w ~capacity in
        (st, collect (fun emit -> start st ~emit)));
    deliver = sends_of_step;
    copy = copy_state;
    fingerprint;
    quiesced;
    stragglers = unterminated_nodes;
    observe = locked_edge_ids;
    msg_tag = (function Prop -> 0 | Rej -> 1);
    (* the reliable-transport escape hatch: a peer declared dead is a
       peer that implicitly declined — the very same Rej transition *)
    give_up =
      Some (fun st ~self ~peer -> sends_of_step st ~src:peer ~dst:self Rej);
  }
