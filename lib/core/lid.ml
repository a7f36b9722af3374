(* owp-lint: pure — the LID transition relation is a function of
   explicit state; no I/O, clocks, or ambient randomness may creep in *)
module Violation = Owp_check.Violation
module Explore = Owp_check.Explore

type message = Prop | Rej

(* Per-node protocol state.  The paper's four sets — U_i, P_i (all
   proposals, locked included), P_i \ K_i (= pending), A_i and K_i —
   are packed as per-candidate flag bits over [uniq], the node's sorted
   unique candidate ids: membership is one byte read instead of five
   Hashtbls per node, which is what makes 10^6-node runs tractable.
   [slot_of_rank] is the node's weight list (incident neighbours by
   decreasing edge weight, duplicates possible under a custom
   [ranking]), each position given as its neighbour's canonical slot so
   duplicate ids alias to one membership bit, exactly like the id-keyed
   Hashtbls they replace.  Proposals arriving from outside the
   candidate universe (possible under a custom [ranking]) land in the
   lazy [extra_a] side table. *)
type node_state = {
  uniq : int array; (* candidate ids, ascending, unique *)
  slot_of_rank : int array; (* weight list, heaviest first, as slots in uniq *)
  flags : Bytes.t; (* U/P/pending/A/K bits + delivery marks per slot *)
  mutable n_u : int; (* |U_i| *)
  mutable n_pending : int; (* |P_i \ K_i| *)
  mutable extra_a : (int, unit) Hashtbl.t option; (* A_i \ universe *)
  mutable ptr : int; (* scan position for topRanked(U \ P) *)
  mutable finished : bool;
  mutable memo_id : int; (* the last id [slot_of] looked up ... *)
  mutable memo_slot : int; (* ... and its slot *)
}

type state = { graph : Graph.t; nodes : node_state array }

let fl_u = 1 (* U_i: still a candidate *)
let fl_p = 2 (* P_i: proposed to (locked included) *)
let fl_w = 4 (* P_i \ K_i: proposal awaiting an answer *)
let fl_a = 8 (* A_i: proposed to us *)
let fl_k = 16 (* K_i: locked *)

(* delivery marks, outside the protocol state: a PROP / a REJ from this
   candidate reached us at least once (see [mark_delivery]) *)
let fl_got_prop = 32
let fl_got_rej = 64

let get s slot = Char.code (Bytes.unsafe_get s.flags slot)
let set s slot f = Bytes.unsafe_set s.flags slot (Char.unsafe_chr f)

(* canonical slot of candidate [id], or -1 when outside the universe.
   The last lookup per node is memoised: the Stack marks a delivery and
   then delivers it, and a locking PROP looks its sender up twice, so
   the repeat lookup skips the search ([uniq] never changes). *)
let search (uniq : int array) id =
  let lo = ref 0 and hi = ref (Array.length uniq - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = Array.unsafe_get uniq mid in
    if x = id then res := mid else if x < id then lo := mid + 1 else hi := mid - 1
  done;
  !res

let slot_of s id =
  if s.memo_id = id then s.memo_slot
  else begin
    let res = search s.uniq id in
    s.memo_id <- id;
    s.memo_slot <- res;
    res
  end

(* ------------------------------------------------------------------ *)
(* transition relation (Alg. 1), shared by the Stack runtime and the   *)
(* exhaustive interleaving explorer                                     *)
(* ------------------------------------------------------------------ *)

(* line 15–16: all proposals answered — decline everyone left, in
   ascending id order (uniq is sorted) *)
let check_done st emit i =
  let s = st.nodes.(i) in
  if (not s.finished) && s.n_pending = 0 then begin
    if s.n_u > 0 then
      for slot = 0 to Array.length s.uniq - 1 do
        let f = get s slot in
        if f land fl_u <> 0 then begin
          set s slot (f land lnot fl_u);
          emit i s.uniq.(slot) Rej
        end
      done;
    s.n_u <- 0;
    s.finished <- true
  end

(* line 12–14: mutual proposal — lock the connection.  [v] was proposed
   to, so it is always inside the candidate universe. *)
let lock st i v =
  let s = st.nodes.(i) in
  let slot = slot_of s v in
  let f = get s slot in
  if f land fl_u <> 0 then s.n_u <- s.n_u - 1;
  if f land fl_w <> 0 then s.n_pending <- s.n_pending - 1;
  set s slot (f land lnot (fl_u lor fl_a lor fl_w) lor fl_k)

(* lines 9–11: propose to the next-ranked neighbour still in U \ P *)
let propose_next st emit i =
  let s = st.nodes.(i) in
  let len = Array.length s.slot_of_rank in
  let rec advance () =
    if s.ptr >= len then -1
    else begin
      let slot = s.slot_of_rank.(s.ptr) in
      let f = get s slot in
      if f land fl_u <> 0 && f land fl_p = 0 then slot
      else begin
        s.ptr <- s.ptr + 1;
        advance ()
      end
    end
  in
  let slot = advance () in
  if slot >= 0 then begin
    let f = get s slot in
    set s slot (f lor fl_p lor fl_w);
    s.n_pending <- s.n_pending + 1;
    let v = s.uniq.(slot) in
    emit i v Prop;
    (* the candidate may have proposed to us already *)
    if f land fl_a <> 0 then lock st i v
  end

let init ?ranking w ~capacity =
  let g = Weights.graph w in
  let n = Graph.node_count g in
  Array.iter (fun b -> if b < 0 then invalid_arg "Lid.init: negative capacity") capacity;
  let quota = Array.mapi (fun i b -> min b (Graph.degree g i)) capacity in
  (* the exact total order of Weights.compare_edges — weight first, then
     (lower endpoint, upper endpoint, id) — inlined over the weight and
     endpoint arrays: rank-derived weights tie constantly, and the
     generic tie-break (tuple build + polymorphic compare) dominated
     init at 10^5-node scale *)
  let ww = Weights.unsafe_weights w in
  let eu = g.Graph.eu and ev = g.Graph.ev in
  let rank_order e f =
    if e = f then 0
    else
      let c = Float.compare ww.(f) ww.(e) in
      if c <> 0 then c
      else if eu.(f) <> eu.(e) then Int.compare eu.(f) eu.(e)
      else if ev.(f) <> ev.(e) then Int.compare ev.(f) ev.(e)
      else Int.compare f e
  in
  (* node i's candidate universe (ascending, unique) and its weight
     list as slots into it.  By default the universe is i's adjacency
     row and the list its slots sorted by [rank_order]. *)
  let weight_list i =
    match ranking with
    | None ->
        let o = g.Graph.off.(i) in
        let order = Array.init (Graph.degree g i) Fun.id in
        Array.sort (fun a b -> rank_order g.Graph.eid.(o + a) g.Graph.eid.(o + b)) order;
        (Graph.neighbor_nodes g i, order)
    | Some f ->
        let ws = f i in
        let m = Array.length ws in
        let ids = Array.init m (fun j -> fst ws.(j)) in
        Array.sort Int.compare ids;
        let k = ref 0 in
        for j = 0 to m - 1 do
          if !k = 0 || ids.(!k - 1) <> ids.(j) then begin
            ids.(!k) <- ids.(j);
            incr k
          end
        done;
        let uniq = Array.sub ids 0 !k in
        (uniq, Array.map (fun (v, _) -> search uniq v) ws)
  in
  let nodes =
    Array.init n (fun i ->
        let uniq, slot_of_rank = weight_list i in
        let k = Array.length uniq in
        {
          uniq;
          slot_of_rank;
          flags = Bytes.make k (Char.chr fl_u);
          n_u = k;
          n_pending = 0;
          extra_a = None;
          ptr = 0;
          finished = false;
          memo_id = -1;
          memo_slot = -1;
        })
  in
  let st = { graph = g; nodes } in
  let sends = ref [] in
  let emit src dst m = sends := (src, dst, m) :: !sends in
  (* lines 1–3: initial proposals to the top b_i of the weight list *)
  for i = 0 to n - 1 do
    let s = nodes.(i) in
    let target = quota.(i) in
    let made = ref 0 in
    while !made < target && s.ptr < Array.length s.slot_of_rank do
      let slot = s.slot_of_rank.(s.ptr) in
      let f = get s slot in
      if f land fl_p = 0 && f land fl_u <> 0 then begin
        set s slot (f lor fl_p lor fl_w);
        s.n_pending <- s.n_pending + 1;
        emit i s.uniq.(slot) Prop;
        incr made
      end;
      s.ptr <- s.ptr + 1
    done;
    (* reset the scan pointer: later proposals rescan from the top,
       skipping anything already proposed to or no longer in U *)
    s.ptr <- 0;
    check_done st emit i
  done;
  (st, List.rev !sends)

(* the transition itself, parameterised on the send sink [emit src dst
   m]: the Stack runtime passes one closure for the whole run (the hot
   path allocates nothing per send), the explorer a list builder *)
let deliver st ~src ~dst m ~emit =
  let i = dst and u = src in
  let s = st.nodes.(i) in
  if not s.finished then begin
    (match m with
    | Prop -> (
        let slot = slot_of s u in
        if slot >= 0 then begin
          let f = get s slot in
          set s slot (f lor fl_a);
          if f land fl_w <> 0 then lock st i u
        end
        else
          (* a proposer outside the candidate universe: remembered in a
             lazy side table so copies and fingerprints still see it *)
          match s.extra_a with
          | Some tbl -> Hashtbl.replace tbl u ()
          | None ->
              let tbl = Hashtbl.create 4 in
              Hashtbl.replace tbl u ();
              s.extra_a <- Some tbl)
    | Rej ->
        let slot = slot_of s u in
        if slot >= 0 then begin
          let f = get s slot in
          if f land fl_u <> 0 then begin
            set s slot (f land lnot fl_u);
            s.n_u <- s.n_u - 1
          end;
          let f = get s slot in
          if f land fl_w <> 0 then begin
            set s slot (f land lnot fl_w);
            s.n_pending <- s.n_pending - 1;
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
  let s = st.nodes.(dst) in
  let slot = slot_of s src in
  if slot < 0 then `Outside
  else begin
    let bit = match m with Prop -> fl_got_prop | Rej -> fl_got_rej in
    let f = get s slot in
    if f land bit <> 0 then `Repeat
    else begin
      set s slot (f lor bit);
      `First
    end
  end

let quiesced st = Array.for_all (fun s -> s.finished) st.nodes

let awaiting_reply st ~node ~peer =
  let s = st.nodes.(node) in
  let slot = slot_of s peer in
  slot >= 0 && get s slot land fl_w <> 0

let locks st i =
  let s = st.nodes.(i) in
  let out = ref [] in
  for slot = Array.length s.uniq - 1 downto 0 do
    if get s slot land fl_k <> 0 then out := s.uniq.(slot) :: !out
  done;
  !out

let unterminated_nodes st =
  let out = ref [] in
  for i = Array.length st.nodes - 1 downto 0 do
    if not st.nodes.(i).finished then out := i :: !out
  done;
  !out

let quiescence_violations st =
  List.map
    (fun i ->
      let s = st.nodes.(i) in
      Violation.v ~checker:"lid-quiescence" (Violation.Node i)
        ~expected:"all proposals answered and U_i emptied (Lemma 5)"
        ~actual:
          (Printf.sprintf "%d unanswered proposal(s), %d candidate(s) left in U_i"
             s.n_pending s.n_u))
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
  let released = ref [] in
  Array.iteri
    (fun i s ->
      if not s.finished then begin
        for slot = 0 to Array.length s.uniq - 1 do
          let f = get s slot in
          if f land fl_w <> 0 then released := (i, s.uniq.(slot)) :: !released;
          if f land (fl_w lor fl_u) <> 0 then
            set s slot (f land lnot (fl_w lor fl_u))
        done;
        s.n_pending <- 0;
        s.n_u <- 0;
        s.finished <- true
      end)
    st.nodes;
  List.rev !released

(* assemble the matching from the locked sets; K is symmetric on a
   clean run, and intersection keeps the result feasible otherwise *)
let locked st i v =
  let s = st.nodes.(i) in
  let slot = slot_of s v in
  slot >= 0 && get s slot land fl_k <> 0

let locked_edge_ids st =
  let ids = ref [] in
  Graph.iter_edges st.graph (fun eid a b ->
      if locked st a b && locked st b a then ids := eid :: !ids);
  List.sort (fun (a : int) b -> compare a b) !ids

(* ------------------------------------------------------------------ *)
(* exploration support                                                  *)
(* ------------------------------------------------------------------ *)

let copy_state st =
  {
    graph = st.graph;
    nodes =
      Array.map
        (fun s ->
          {
            s with
            flags = Bytes.copy s.flags;
            extra_a = Option.map Hashtbl.copy s.extra_a;
          })
        st.nodes;
  }

let add_flagged_ids buf s flag =
  for slot = 0 to Array.length s.uniq - 1 do
    if get s slot land flag <> 0 then begin
      Buffer.add_string buf (string_of_int s.uniq.(slot));
      Buffer.add_char buf ','
    end
  done

(* A_i spans the universe bits plus the extra side table *)
let add_a_ids buf s =
  match s.extra_a with
  | None -> add_flagged_ids buf s fl_a
  | Some tbl ->
      (* owp-lint: allow hash-order — collected keys are sorted before use *)
      let acc = ref (Hashtbl.fold (fun k () l -> k :: l) tbl []) in
      for slot = Array.length s.uniq - 1 downto 0 do
        if get s slot land fl_a <> 0 then acc := s.uniq.(slot) :: !acc
      done;
      List.iter
        (fun k ->
          Buffer.add_string buf (string_of_int k);
          Buffer.add_char buf ',')
        (List.sort compare !acc)

(* the scan pointer is excluded on purpose: it only caches how far the
   monotone topRanked(U \ P) scan has advanced, and U only shrinks while
   P only grows, so states differing in ptr alone behave identically *)
let fingerprint st =
  let b = Buffer.create 256 in
  Array.iter
    (fun s ->
      Buffer.add_char b (if s.finished then 'F' else 'a');
      Buffer.add_char b 'u';
      add_flagged_ids b s fl_u;
      Buffer.add_char b 'p';
      add_flagged_ids b s fl_p;
      Buffer.add_char b 'w';
      add_flagged_ids b s fl_w;
      Buffer.add_char b 'x';
      add_a_ids b s;
      Buffer.add_char b 'k';
      add_flagged_ids b s fl_k;
      Buffer.add_char b '|')
    st.nodes;
  Buffer.contents b

let to_send (src, dst, m) = { Explore.src; dst; payload = m }

(* one transition's wire messages, in emission order *)
let sends_of_step st ~src ~dst m =
  let out = ref [] in
  deliver st ~src ~dst m ~emit:(fun src dst payload ->
      out := { Explore.src; dst; payload } :: !out);
  List.rev !out

let model w ~capacity =
  {
    Explore.init =
      (fun () ->
        let st, sends = init w ~capacity in
        (st, List.map to_send sends));
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
