type instance = {
  weights : Weights.t;
  capacity : int array;
  correct : bool array;
  edges : int list;
  consumed : int array;
  unterminated : int list;
  overclaimed : (int * int) list;
}

let name = "byzantine-damage"

let doc =
  "with <= f Byzantine peers: correct peers terminate, stay capacity-feasible, \
   and are locally heaviest on the correct subgraph (Lemma 6 relativized)"

let termination_violations inst =
  List.map
    (fun i ->
      Violation.v ~checker:"byzantine-termination" (Violation.Node i)
        ~expected:"every correct peer quiesces (Lemma 5 relativized)"
        ~actual:"correct peer with pending protocol obligations")
    inst.unterminated

let restriction_violations inst =
  let g = Weights.graph inst.weights in
  let m = Graph.edge_count g in
  let seen = Array.make (max m 1) false in
  List.filter_map
    (fun eid ->
      if eid < 0 || eid >= m then
        Some
          (Violation.v ~checker:"byzantine-restriction" Violation.Global
             ~expected:"matching edges are edges of the potential graph"
             ~actual:(Printf.sprintf "edge id %d out of range" eid))
      else begin
        let u, v = Graph.edge_endpoints g eid in
        if seen.(eid) then
          Some
            (Violation.v ~checker:"byzantine-restriction" (Violation.Edge (u, v))
               ~expected:"each edge selected at most once"
               ~actual:"duplicate edge in the restricted matching")
        else begin
          seen.(eid) <- true;
          if not (inst.correct.(u) && inst.correct.(v)) then
            Some
              (Violation.v ~checker:"byzantine-restriction" (Violation.Edge (u, v))
                 ~expected:"restricted matching touches only correct peers"
                 ~actual:"selected edge with a Byzantine endpoint")
          else None
        end
      end)
    inst.edges

(* restricted matching degree per node, from the (validated) edge list *)
let restricted_degrees inst =
  let g = Weights.graph inst.weights in
  let d = Array.make (Graph.node_count g) 0 in
  List.iter
    (fun eid ->
      if eid >= 0 && eid < Graph.edge_count g then begin
        let u, v = Graph.edge_endpoints g eid in
        d.(u) <- d.(u) + 1;
        d.(v) <- d.(v) + 1
      end)
    inst.edges;
  d

let feasibility_violations inst =
  let g = Weights.graph inst.weights in
  let d = restricted_degrees inst in
  let out = ref [] in
  for i = Graph.node_count g - 1 downto 0 do
    if inst.correct.(i) then begin
      if inst.consumed.(i) > inst.capacity.(i) then
        out :=
          Violation.v ~checker:"byzantine-feasibility" (Violation.Node i)
            ~expected:
              (Printf.sprintf "at most b_i = %d locked slots" inst.capacity.(i))
            ~actual:
              (Printf.sprintf "%d slots locked (Byzantine partners included)"
                 inst.consumed.(i))
          :: !out;
      if d.(i) > inst.consumed.(i) then
        out :=
          Violation.v ~checker:"byzantine-feasibility" (Violation.Node i)
            ~expected:"restricted matching degree within the node's locked slots"
            ~actual:
              (Printf.sprintf "%d matched edges but only %d slots accounted" d.(i)
                 inst.consumed.(i))
          :: !out
    end
  done;
  !out

(* Lemma 6 relativized: an unselected correct-correct edge may not beat
   the locked alternatives at both its endpoints.  Residual capacity is
   computed against ALL consumed slots — a slot wasted on a Byzantine
   partner is damage the f-bounded adversary is allowed, not evidence
   of a blocking pair — while the "lightest lock" challenge only ranges
   over correct-correct locks (the paper's eq. 9 weights of which are
   known and comparable). *)
let blocking_violations inst =
  let g = Weights.graph inst.weights in
  let m = Graph.edge_count g in
  let sel = Array.make (max m 1) 0 in
  List.iter (fun eid -> if eid >= 0 && eid < m then sel.(eid) <- 1) inst.edges;
  let d = restricted_degrees inst in
  let light = Checker.lightest_selected g inst.weights sel in
  let out = ref [] in
  Graph.iter_edges g (fun eid u v ->
      if sel.(eid) = 0 && inst.correct.(u) && inst.correct.(v) then begin
        let beats x =
          let residual = inst.capacity.(x) - max inst.consumed.(x) d.(x) in
          if residual > 0 then inst.capacity.(x) > 0
          else light.(x) >= 0 && Weights.heavier inst.weights eid light.(x)
        in
        if beats u && beats v then
          out :=
            Violation.v ~checker:"byzantine-blocking-pair" (Violation.Edge (u, v))
              ~expected:
                "no unselected correct-correct edge beats the locked alternatives \
                 at both endpoints (Lemma 6 relativized)"
              ~actual:"edge preferred by both correct endpoints was left unmatched"
            :: !out
      end);
  List.rev !out

(* A slot locked to a peer whose bootstrap advertisement provably
   exceeded its public 1/b bound is avoidable damage: the claim was a
   verifiable lie at t = 0, so a guarded node never ranks (or proposes
   to) the advertiser, while an unguarded node hands it a slot.  The
   driver reports the (victim, liar) pairs; each one voids the
   bounded-damage certificate. *)
let overclaim_violations inst =
  List.map
    (fun (victim, liar) ->
      Violation.v ~checker:"byzantine-overclaim" (Violation.Edge (victim, liar))
        ~expected:
          "no slot locked to a peer whose advertised half-weight provably \
           exceeds its public 1/b bound"
        ~actual:
          (Printf.sprintf "correct peer %d locked over-claiming advertiser %d"
             victim liar))
    inst.overclaimed

let check ?(cutoff = false) inst =
  let g = Weights.graph inst.weights in
  let n = Graph.node_count g in
  if
    Array.length inst.capacity <> n
    || Array.length inst.correct <> n
    || Array.length inst.consumed <> n
  then invalid_arg "Byzantine.check: arity mismatch";
  termination_violations inst
  @ restriction_violations inst
  @ feasibility_violations inst
  (* at a deadline cutoff, unmatched mutually-preferred edges are the
     budget's measured degradation, not damage — the safety clauses
     (restriction, feasibility, overclaim) still hold exactly *)
  @ (if cutoff then [] else blocking_violations inst)
  @ overclaim_violations inst
