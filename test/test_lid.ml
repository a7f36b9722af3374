module Lid = Owp_core.Lid
module Stack = Owp_core.Stack
module Lic = Owp_core.Lic
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Prng = Owp_util.Prng

let random_instance seed n avg_deg quota =
  let rng = Prng.create seed in
  let m = n * avg_deg / 2 in
  let g = Gen.gnm rng ~n ~m in
  let p = Preference.random rng g ~quota:(Preference.uniform_quota g quota) in
  let w = Weights.of_preference p in
  let capacity = Array.init n (Preference.quota p) in
  (g, p, w, capacity)

let test_two_nodes () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let r = Stack.run w ~capacity:[| 1; 1 |] in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check (list int)) "matched" [ 0 ] (BM.edge_ids r.Stack.matching);
  Alcotest.(check int) "two props" 2 r.Stack.prop_count;
  Alcotest.(check int) "no rejections" 0 r.Stack.rej_count

let test_empty_graph () =
  let g = Graph.of_edge_list 3 [] in
  let w = Weights.of_array g [||] in
  let r = Stack.run w ~capacity:[| 2; 2; 2 |] in
  Alcotest.(check bool) "terminates with no edges" true r.Stack.all_terminated;
  Alcotest.(check int) "no messages" 0 (r.Stack.prop_count + r.Stack.rej_count)

let test_star_competition () =
  (* all leaves want the hub, hub has capacity 1: exactly one lock, the
     others get explicit REJs *)
  let g = Gen.star 5 in
  let w = Weights.of_array g [| 4.0; 3.0; 2.0; 1.0 |] in
  let r = Stack.run w ~capacity:(Array.make 5 1) in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check (list int)) "heaviest leaf wins" [ 0 ] (BM.edge_ids r.Stack.matching);
  Alcotest.(check int) "three rejections" 3 r.Stack.rej_count

let test_zero_quota () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  let r = Stack.run w ~capacity:[| 0; 1 |] in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check int) "nothing locked" 0 (BM.size r.Stack.matching)

let test_negative_capacity_rejected () =
  let g = Graph.of_edge_list 2 [ (0, 1) ] in
  let w = Weights.of_array g [| 1.0 |] in
  Alcotest.check_raises "negative" (Invalid_argument "Lid.init: negative capacity")
    (fun () -> ignore (Stack.run w ~capacity:[| -1; 1 |]))

let delay_models =
  [ Sim.Unit; Sim.Uniform (0.5, 1.5); Sim.Uniform (0.01, 20.0); Sim.Exponential 2.0 ]

let prop_terminates_and_equals_lic =
  QCheck2.Test.make ~name:"LID terminates and equals LIC under any delay model" ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 3))
    (fun (seed, dm) ->
      let _, _, w, capacity = random_instance seed 25 6 2 in
      let lic = Lic.run w ~capacity in
      let r = Stack.run ~seed:(seed + 17) ~delay:(List.nth delay_models dm) w ~capacity in
      r.Stack.all_terminated && BM.equal r.Stack.matching lic)

let prop_quota_respected =
  QCheck2.Test.make ~name:"LID respects quotas" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 30 8 3 in
      let r = Stack.run w ~capacity in
      let ok = ref r.Stack.all_terminated in
      Array.iteri
        (fun v b -> if BM.degree r.Stack.matching v > b then ok := false)
        capacity;
      !ok)

let prop_message_bounds =
  QCheck2.Test.make ~name:"LID message counts are linear in m" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g, _, w, capacity = random_instance seed 40 8 3 in
      let m = Graph.edge_count g in
      let r = Stack.run w ~capacity in
      (* each ordered pair (i, j) exchanges at most one PROP and one REJ *)
      r.Stack.prop_count <= 2 * m && r.Stack.rej_count <= 2 * m)

let prop_non_fifo_equivalent =
  QCheck2.Test.make ~name:"LID equals LIC even without FIFO links" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let _, _, w, capacity = random_instance seed 20 6 2 in
      let lic = Lic.run w ~capacity in
      let r = Stack.run ~seed ~fifo:false ~delay:(Sim.Uniform (0.01, 50.0)) w ~capacity in
      r.Stack.all_terminated && BM.equal r.Stack.matching lic)

let test_message_drops_detected () =
  (* with heavy loss the protocol cannot finish cleanly: the report
     must expose that rather than fabricate a result *)
  let _, _, w, capacity = random_instance 3 20 6 2 in
  let faults = Sim.faults ~drop:0.6 () in
  let r = Stack.run ~seed:5 ~faults w ~capacity in
  (* either some node never finished, or (unlikely) everything got through *)
  Alcotest.(check bool) "report is coherent" true
    ((not r.Stack.all_terminated) || BM.size r.Stack.matching >= 0)

let test_duplicates_harmless () =
  let _, _, w, capacity = random_instance 4 20 6 2 in
  let lic = Lic.run w ~capacity in
  let faults = Sim.faults ~duplicate:0.5 () in
  let r = Stack.run ~seed:6 ~faults w ~capacity in
  Alcotest.(check bool) "terminated" true r.Stack.all_terminated;
  Alcotest.(check bool) "same result despite duplicates" true (BM.equal r.Stack.matching lic)

let test_virtual_time_positive () =
  let _, _, w, capacity = random_instance 5 15 4 2 in
  let r = Stack.run w ~capacity in
  Alcotest.(check bool) "time advanced" true (r.Stack.completion_time > 0.0);
  Alcotest.(check bool) "delivered counted" true (r.Stack.delivered > 0)

(* ------------------------------------------------------------------ *)
(* the slot-indexed state against the per-node reference               *)
(* ------------------------------------------------------------------ *)

(* The LID state machine as it was before it moved onto the CSR: one
   record per node holding a sorted copy of its candidate ids, its
   weight list as positions in that copy (built by a closure sort), a
   flag byte per candidate, a lookup memo and an optional Hashtbl of
   proposing strangers, and a bootstrap returned as a tuple list.  The
   bootstrap weights of the guard layer reach it as a ranking built by
   the Stack's former closure sort.  Everything observable must match
   the new state exactly. *)
module Reference = struct
  type node_state = {
    uniq : int array;
    slot_of_rank : int array;
    flags : Bytes.t;
    mutable n_u : int;
    mutable n_pending : int;
    mutable extra_a : (int, unit) Hashtbl.t option;
    mutable ptr : int;
    mutable finished : bool;
    mutable memo_id : int;
    mutable memo_slot : int;
  }

  type state = { graph : Graph.t; nodes : node_state array }

  let fl_u = 1
  let fl_p = 2
  let fl_w = 4
  let fl_a = 8
  let fl_k = 16
  let fl_got_prop = 32
  let fl_got_rej = 64
  let get s slot = Char.code (Bytes.get s.flags slot)
  let set s slot f = Bytes.set s.flags slot (Char.chr f)

  let search (uniq : int array) id =
    let lo = ref 0 and hi = ref (Array.length uniq - 1) in
    let res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = uniq.(mid) in
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

  let check_done st emit i =
    let s = st.nodes.(i) in
    if (not s.finished) && s.n_pending = 0 then begin
      if s.n_u > 0 then
        for slot = 0 to Array.length s.uniq - 1 do
          let f = get s slot in
          if f land fl_u <> 0 then begin
            set s slot (f land lnot fl_u);
            emit i s.uniq.(slot) Lid.Rej
          end
        done;
      s.n_u <- 0;
      s.finished <- true
    end

  let lock st i v =
    let s = st.nodes.(i) in
    let slot = slot_of s v in
    let f = get s slot in
    if f land fl_u <> 0 then s.n_u <- s.n_u - 1;
    if f land fl_w <> 0 then s.n_pending <- s.n_pending - 1;
    set s slot (f land lnot (fl_u lor fl_a lor fl_w) lor fl_k)

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
      emit i v Lid.Prop;
      if f land fl_a <> 0 then lock st i v
    end

  let init ?ranking w ~capacity =
    let g = Weights.graph w in
    let n = Graph.node_count g in
    Array.iter (fun b -> if b < 0 then invalid_arg "Lid.init: negative capacity") capacity;
    let quota = Array.mapi (fun i b -> min b (Graph.degree g i)) capacity in
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
    let weight_list i =
      match ranking with
      | None ->
          let o = g.Graph.off.(i) in
          let order = Array.init (Graph.degree g i) Fun.id in
          Array.sort (fun a b -> rank_order g.Graph.eid.(o + a) g.Graph.eid.(o + b)) order;
          (Graph.neighbor_nodes g i, order)
      | Some f ->
          let ws = f i in
          let ids = Array.map fst ws in
          Array.sort Int.compare ids;
          let uniq = Array.of_list (List.sort_uniq Int.compare (Array.to_list ids)) in
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
    for i = 0 to n - 1 do
      let s = nodes.(i) in
      let made = ref 0 in
      while !made < quota.(i) && s.ptr < Array.length s.slot_of_rank do
        let slot = s.slot_of_rank.(s.ptr) in
        let f = get s slot in
        if f land fl_p = 0 && f land fl_u <> 0 then begin
          set s slot (f lor fl_p lor fl_w);
          s.n_pending <- s.n_pending + 1;
          emit i s.uniq.(slot) Lid.Prop;
          incr made
        end;
        s.ptr <- s.ptr + 1
      done;
      s.ptr <- 0;
      check_done st emit i
    done;
    (st, List.rev !sends)

  let deliver st ~src ~dst m ~emit =
    let i = dst and u = src in
    let s = st.nodes.(i) in
    if not s.finished then begin
      (match m with
      | Lid.Prop -> (
          let slot = slot_of s u in
          if slot >= 0 then begin
            let f = get s slot in
            set s slot (f lor fl_a);
            if f land fl_w <> 0 then lock st i u
          end
          else
            match s.extra_a with
            | Some tbl -> Hashtbl.replace tbl u ()
            | None ->
                let tbl = Hashtbl.create 4 in
                Hashtbl.replace tbl u ();
                s.extra_a <- Some tbl)
      | Lid.Rej ->
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
              propose_next st emit i
            end
          end);
      check_done st emit i
    end

  let mark_delivery st ~src ~dst m =
    let s = st.nodes.(dst) in
    let slot = slot_of s src in
    if slot < 0 then `Outside
    else begin
      let bit = match m with Lid.Prop -> fl_got_prop | Lid.Rej -> fl_got_rej in
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
        Owp_check.Violation.v ~checker:"lid-quiescence" (Owp_check.Violation.Node i)
          ~expected:"all proposals answered and U_i emptied (Lemma 5)"
          ~actual:
            (Printf.sprintf "%d unanswered proposal(s), %d candidate(s) left in U_i"
               s.n_pending s.n_u))
      (unterminated_nodes st)

  let freeze st =
    let released = ref [] in
    Array.iteri
      (fun i s ->
        if not s.finished then begin
          for slot = 0 to Array.length s.uniq - 1 do
            let f = get s slot in
            if f land fl_w <> 0 then released := (i, s.uniq.(slot)) :: !released;
            if f land (fl_w lor fl_u) <> 0 then set s slot (f land lnot (fl_w lor fl_u))
          done;
          s.n_pending <- 0;
          s.n_u <- 0;
          s.finished <- true
        end)
      st.nodes;
    List.rev !released

  let locked st i v =
    let s = st.nodes.(i) in
    let slot = slot_of s v in
    slot >= 0 && get s slot land fl_k <> 0

  let locked_edge_ids st =
    let ids = ref [] in
    Graph.iter_edges st.graph (fun eid a b ->
        if locked st a b && locked st b a then ids := eid :: !ids);
    List.sort Int.compare !ids

  let copy_state st =
    {
      graph = st.graph;
      nodes =
        Array.map
          (fun s ->
            { s with flags = Bytes.copy s.flags; extra_a = Option.map Hashtbl.copy s.extra_a })
          st.nodes;
    }

  let add_flagged_ids buf s flag =
    for slot = 0 to Array.length s.uniq - 1 do
      if get s slot land flag <> 0 then begin
        Buffer.add_string buf (string_of_int s.uniq.(slot));
        Buffer.add_char buf ','
      end
    done

  let add_a_ids buf s =
    match s.extra_a with
    | None -> add_flagged_ids buf s fl_a
    | Some tbl ->
        let acc = ref (Hashtbl.fold (fun k () l -> k :: l) tbl []) in
        for slot = Array.length s.uniq - 1 downto 0 do
          if get s slot land fl_a <> 0 then acc := s.uniq.(slot) :: !acc
        done;
        List.iter
          (fun k ->
            Buffer.add_string buf (string_of_int k);
            Buffer.add_char buf ',')
          (List.sort Int.compare !acc)

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

  (* the Stack's former bootstrap ranking: each row's perceived weights,
     NaN entries left out, sorted by a closure comparator *)
  let ranking_of_perceived g (pw : float array) i =
    let o = g.Graph.off.(i) in
    let rows =
      List.init (Graph.degree g i) Fun.id
      |> List.filter (fun r -> not (Float.is_nan pw.(o + r)))
      |> Array.of_list
    in
    Array.sort
      (fun a b ->
        let c = Float.compare pw.(o + b) pw.(o + a) in
        if c <> 0 then c
        else begin
          let e = g.Graph.eid.(o + a) and f = g.Graph.eid.(o + b) in
          let ue = Graph.edge_u g e and uf = Graph.edge_u g f in
          if uf <> ue then Int.compare uf ue
          else
            let ve = Graph.edge_v g e and vf = Graph.edge_v g f in
            if vf <> ve then Int.compare vf ve else Int.compare f e
        end)
      rows;
    Array.map (fun r -> (g.Graph.nbr.(o + r), g.Graph.eid.(o + r))) rows
end

(* A random small instance: rank-derived eq. 9 weights (ties between
   edges everywhere) or weights drawn from {1, 2, 3}; capacities from 0
   to one above the degree; and, half the time, perceived bootstrap
   weights from {1, 2, 3} with some neighbours, and some whole nodes,
   left out. *)
let differential_instance rng =
  let int_in rng lo hi = lo + Prng.int rng (hi - lo + 1) in
  let n = int_in rng 1 9 in
  let m = int_in rng 0 (n * (n - 1) / 2) in
  let g = Gen.gnm rng ~n ~m in
  let w =
    if Prng.bool rng then
      Weights.of_preference
        (Preference.random rng g ~quota:(Preference.uniform_quota g (int_in rng 1 3)))
    else Weights.of_array g (Array.init m (fun _ -> float_of_int (int_in rng 1 3)))
  in
  let capacity = Array.init n (fun i -> int_in rng 0 (Graph.degree g i + 1)) in
  let perceived =
    if Prng.bool rng then None
    else begin
      let pw = Array.make (2 * m) Float.nan in
      for i = 0 to n - 1 do
        if not (Prng.bernoulli rng 0.15) then
          for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
            if not (Prng.bernoulli rng 0.25) then pw.(s) <- float_of_int (int_in rng 1 3)
          done
      done;
      Some pw
    end
  in
  (g, w, capacity, perceived)

let observe_new st n =
  ( Lid.fingerprint st,
    List.init n (Lid.locks st),
    Lid.locked_edge_ids st,
    Lid.unterminated_nodes st,
    Lid.quiesced st,
    List.map Owp_check.Violation.to_string (Lid.quiescence_violations st),
    List.init (n * n) (fun k -> Lid.awaiting_reply st ~node:(k / n) ~peer:(k mod n)) )

let observe_ref st n =
  ( Reference.fingerprint st,
    List.init n (Reference.locks st),
    Reference.locked_edge_ids st,
    Reference.unterminated_nodes st,
    Reference.quiesced st,
    List.map Owp_check.Violation.to_string (Reference.quiescence_violations st),
    List.init (n * n) (fun k -> Reference.awaiting_reply st ~node:(k / n) ~peer:(k mod n)) )

(* One random delivery schedule run through both machines in lockstep:
   in-flight messages delivered in random order, each sometimes marked
   first; duplicates of delivered messages; junk PROPs and REJs from any
   node, strangers included; copies of both states mid-run; and now and
   then an anytime freeze.  Every step's sends, every mark and every
   observation must agree. *)
let differential_run seed =
  let rng = Prng.create seed in
  let g, w, capacity, perceived = differential_instance rng in
  let n = Graph.node_count g in
  let collect f =
    let out = ref [] in
    f (fun src dst m -> out := (src, dst, m) :: !out);
    List.rev !out
  in
  let st = ref (Lid.init ?perceived w ~capacity) in
  let rs, want =
    Reference.init ?ranking:(Option.map (Reference.ranking_of_perceived g) perceived) w ~capacity
  in
  let rs = ref rs in
  let got = collect (fun emit -> Lid.start !st ~emit) in
  let ok = ref (got = want) in
  let pool = ref (Array.of_list got) and seen = ref [||] in
  let agree () = observe_new !st n = observe_ref !rs n in
  ok := !ok && agree ();
  let step = ref 0 in
  while !ok && !step < 120 do
    incr step;
    let pick a = a.(Prng.int rng (Array.length a)) in
    let take () =
      let k = Prng.int rng (Array.length !pool) in
      let x = !pool.(k) in
      pool := Array.append (Array.sub !pool 0 k) (Array.sub !pool (k + 1) (Array.length !pool - k - 1));
      seen := Array.append !seen [| x |];
      x
    in
    let r = Prng.int rng 100 in
    if r < 4 then begin
      st := Lid.copy_state !st;
      rs := Reference.copy_state !rs
    end
    else if r < 6 then ok := Lid.freeze !st = Reference.freeze !rs
    else begin
      let src, dst, m =
        if r < 75 && Array.length !pool > 0 then take ()
        else if r < 88 && Array.length !seen > 0 then pick !seen
        else if n > 0 then
          (Prng.int rng n, Prng.int rng n, if Prng.bool rng then Lid.Prop else Lid.Rej)
        else (0, 0, Lid.Prop)
      in
      if n > 0 then begin
        if Prng.bool rng then
          ok := Lid.mark_delivery !st ~src ~dst m = Reference.mark_delivery !rs ~src ~dst m;
        let got = collect (fun emit -> Lid.deliver !st ~src ~dst m ~emit) in
        let want = collect (fun emit -> Reference.deliver !rs ~src ~dst m ~emit) in
        ok := !ok && got = want;
        pool := Array.append !pool (Array.of_list got)
      end
    end;
    ok := !ok && agree ()
  done;
  !ok

let prop_matches_reference =
  QCheck2.Test.make ~name:"the slot-indexed state matches the per-node reference" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    differential_run

let suite =
  [
    Alcotest.test_case "two nodes" `Quick test_two_nodes;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "star competition" `Quick test_star_competition;
    Alcotest.test_case "zero quota" `Quick test_zero_quota;
    Alcotest.test_case "negative capacity" `Quick test_negative_capacity_rejected;
    QCheck_alcotest.to_alcotest prop_terminates_and_equals_lic;
    QCheck_alcotest.to_alcotest prop_quota_respected;
    QCheck_alcotest.to_alcotest prop_message_bounds;
    QCheck_alcotest.to_alcotest prop_non_fifo_equivalent;
    Alcotest.test_case "message drops detected" `Quick test_message_drops_detected;
    Alcotest.test_case "duplicates harmless" `Quick test_duplicates_harmless;
    Alcotest.test_case "virtual time positive" `Quick test_virtual_time_positive;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
