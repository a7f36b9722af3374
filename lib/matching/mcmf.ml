type t = {
  n : int;
  mutable head : int array; (* vertex -> first arc index, -1 terminates *)
  mutable next : int array; (* arc -> next arc of same vertex *)
  mutable dst : int array;
  mutable cap : int array;
  mutable cost : float array;
  mutable arcs : int; (* arcs allocated; forward arc 2k, backward 2k+1 *)
}

let create n =
  {
    n;
    head = Array.make (max n 1) (-1);
    next = [||];
    dst = [||];
    cap = [||];
    cost = [||];
    arcs = 0;
  }

let grow t =
  let len = Array.length t.dst in
  if t.arcs + 2 > len then begin
    let nlen = max 16 (2 * len) in
    let extend a fill =
      let na = Array.make nlen fill in
      Array.blit a 0 na 0 len;
      na
    in
    t.next <- extend t.next (-1);
    t.dst <- extend t.dst 0;
    t.cap <- extend t.cap 0;
    t.cost <- extend t.cost 0.0
  end

let add_half t src dst cap cost =
  grow t;
  let a = t.arcs in
  t.arcs <- a + 1;
  t.dst.(a) <- dst;
  t.cap.(a) <- cap;
  t.cost.(a) <- cost;
  t.next.(a) <- t.head.(src);
  t.head.(src) <- a;
  a

let add_edge t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mcmf.add_edge: vertex out of range";
  if capacity < 0 then invalid_arg "Mcmf.add_edge: negative capacity";
  let fwd = add_half t src dst capacity cost in
  let _bwd = add_half t dst src 0 (-.cost) in
  fwd

(* Bellman–Ford from [source]: returns (dist, pred_arc) or None when the
   sink is unreachable. *)
let cheapest_path t ~source ~sink =
  let inf = infinity in
  let dist = Array.make t.n inf in
  let pred = Array.make t.n (-1) in
  let in_queue = Array.make t.n false in
  dist.(source) <- 0.0;
  let q = Queue.create () in
  Queue.push source q;
  in_queue.(source) <- true;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    in_queue.(u) <- false;
    let a = ref t.head.(u) in
    while !a >= 0 do
      if t.cap.(!a) > 0 then begin
        let v = t.dst.(!a) in
        let nd = dist.(u) +. t.cost.(!a) in
        if nd < dist.(v) -. 1e-12 then begin
          dist.(v) <- nd;
          pred.(v) <- !a;
          if not in_queue.(v) then begin
            Queue.push v q;
            in_queue.(v) <- true
          end
        end
      end;
      a := t.next.(!a)
    done
  done;
  if Float.equal dist.(sink) inf then None else Some (dist.(sink), pred)

let augment t ~source ~sink pred =
  (* bottleneck capacity along the predecessor chain *)
  let bottleneck = ref max_int in
  let v = ref sink in
  while !v <> source do
    let a = pred.(!v) in
    bottleneck := min !bottleneck t.cap.(a);
    v := t.dst.(a lxor 1)
  done;
  let v = ref sink in
  while !v <> source do
    let a = pred.(!v) in
    t.cap.(a) <- t.cap.(a) - !bottleneck;
    t.cap.(a lxor 1) <- t.cap.(a lxor 1) + !bottleneck;
    v := t.dst.(a lxor 1)
  done;
  !bottleneck

let min_cost_flow t ~source ~sink =
  if source = sink then invalid_arg "Mcmf: source equals sink";
  let flow = ref 0 and cost = ref 0.0 in
  let continue = ref true in
  while !continue do
    match cheapest_path t ~source ~sink with
    | Some (path_cost, pred) when path_cost < -1e-12 ->
        let pushed = augment t ~source ~sink pred in
        flow := !flow + pushed;
        cost := !cost +. (float_of_int pushed *. path_cost)
    | _ -> continue := false
  done;
  (!flow, !cost)

let flow_on t fwd =
  if fwd < 0 || fwd >= t.arcs then invalid_arg "Mcmf.flow_on: bad handle";
  (* flow pushed forward equals capacity accumulated on the reverse arc *)
  t.cap.(fwd lxor 1)
