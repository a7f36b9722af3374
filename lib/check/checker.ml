module Bmatching = Owp_matching.Bmatching
module Exact = Owp_matching.Exact

type accounting = {
  listed : int array;
  cover : int array;
  bad : int list;
  feasible : bool;
}

type instance = {
  graph : Graph.t;
  weights : Weights.t;
  capacity : int array;
  prefs : Preference.t option;
  edges : int list;
  accounting : accounting Lazy.t;
  blocking : (int * int * int) list Lazy.t;
  augmenting : (int * int * int) list Lazy.t;
}

type t = { name : string; doc : string; run : instance -> Violation.t list }

(* ------------------------------------------------------------------ *)
(* shared accounting over the raw edge set                              *)
(* ------------------------------------------------------------------ *)

let valid_id inst eid = eid >= 0 && eid < Graph.edge_count inst.graph
let cap inst i = if i < Array.length inst.capacity then inst.capacity.(i) else 0

(* One pass over the raw edge list, forced at most once per instance
   through its [accounting] field.  An m-sized count array stands in for
   a hash set: an id is bad when it is out of range or already counted.
   Cover counts keep multiplicity, so a duplicated id counts twice
   toward its endpoints' quotas. *)
let account inst =
  let g = inst.graph in
  let n = Graph.node_count g and m = Graph.edge_count g in
  let listed = Array.make m 0 and cover = Array.make n 0 in
  let bad =
    List.fold_left
      (fun bad eid ->
        if eid < 0 || eid >= m then eid :: bad
        else begin
          let u = g.Graph.eu.(eid) and v = g.Graph.ev.(eid) in
          cover.(u) <- cover.(u) + 1;
          cover.(v) <- cover.(v) + 1;
          listed.(eid) <- listed.(eid) + 1;
          if listed.(eid) > 1 then eid :: bad else bad
        end)
      [] inst.edges
  in
  let feasible =
    Array.length inst.capacity = n
    && bad = []
    && Array.for_all2 (fun c b -> c <= b) cover inst.capacity
  in
  { listed; cover; bad = List.rev bad; feasible }

(* eq. 1 at node [i] from its connection count and the sum of their
   ranks, which is all the formula reads *)
let node_satisfaction prefs i ~count ~rank_sum =
  let l = Preference.list_len prefs i and b = Preference.quota prefs i in
  if l = 0 || b = 0 then 0.0
  else Satisfaction.of_rank_sum ~quota:b ~list_len:l ~count ~rank_sum

(* every node's rank sum over its listed connections, with
   multiplicity: one walk over the adjacency rows, ranks read by slot *)
let rank_sums inst prefs =
  let g = inst.graph and listed = (Lazy.force inst.accounting).listed in
  let sums = Array.make (Graph.node_count g) 0 in
  for i = 0 to Graph.node_count g - 1 do
    for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
      let k = listed.(g.Graph.eid.(s)) in
      if k > 0 then sums.(i) <- sums.(i) + (k * Preference.slot_rank prefs s)
    done
  done;
  sums

(* ------------------------------------------------------------------ *)
(* diagnostics                                                          *)
(* ------------------------------------------------------------------ *)

let edge_validity =
  {
    name = "edge-validity";
    doc = "edge ids are in range and not duplicated";
    run =
      (fun inst ->
        let m = Graph.edge_count inst.graph in
        List.map
          (fun eid ->
            if not (valid_id inst eid) then
              Violation.v ~checker:"edge-validity" Violation.Global
                ~expected:(Printf.sprintf "edge id in [0, %d)" m)
                ~actual:(Printf.sprintf "id %d" eid)
            else
              let u, v = Graph.edge_endpoints inst.graph eid in
              Violation.v ~checker:"edge-validity" (Violation.Edge (u, v))
                ~expected:"each edge selected at most once"
                ~actual:(Printf.sprintf "edge id %d duplicated" eid))
          (Lazy.force inst.accounting).bad);
  }

let quota_feasibility =
  {
    name = "quota";
    doc = "every node covered at most capacity(i) times";
    run =
      (fun inst ->
        let n = Graph.node_count inst.graph in
        if Array.length inst.capacity <> n then
          [
            Violation.v ~checker:"quota" Violation.Global
              ~expected:(Printf.sprintf "capacity vector of length %d" n)
              ~actual:(Printf.sprintf "length %d" (Array.length inst.capacity));
          ]
        else begin
          let d = (Lazy.force inst.accounting).cover in
          let out = ref [] in
          for i = n - 1 downto 0 do
            if inst.capacity.(i) < 0 then
              out :=
                Violation.v ~checker:"quota" (Violation.Node i)
                  ~expected:"capacity >= 0"
                  ~actual:(Printf.sprintf "capacity %d" inst.capacity.(i))
                :: !out
            else if d.(i) > inst.capacity.(i) then
              out :=
                Violation.v ~checker:"quota" (Violation.Node i)
                  ~expected:(Printf.sprintf "at most %d connections" inst.capacity.(i))
                  ~actual:(Printf.sprintf "%d connections" d.(i))
                :: !out
          done;
          !out
        end);
  }

(* Eq. 9 recomputed on its own: each row is ranked by position in the
   owner's preference list, through an n-sized slot map cleared after
   the row, so neither the rank table nor [Weights.of_preference]'s slot
   pass is read.  The lower endpoint of an edge stores its half, the
   upper endpoint adds its own, so [expect.(e)] is
   [half u v +. half v u]. *)
let weight_symmetry =
  {
    name = "weight-symmetry";
    doc = "w(i,j) = dS_i(j) + dS_j(i) (eq. 9), both orientations";
    run =
      (fun inst ->
        match inst.prefs with
        | None -> []
        | Some prefs ->
            let g = inst.graph in
            let n = Graph.node_count g in
            let expect = Array.make (Graph.edge_count g) 0.0 in
            let pos = Array.make n (-1) in
            for i = 0 to n - 1 do
              let l = Preference.list_len prefs i and b = Preference.quota prefs i in
              let list = if l = 0 || b = 0 then [||] else Preference.list prefs i in
              Array.iteri (fun r j -> pos.(j) <- r) list;
              for s = g.Graph.off.(i) to g.Graph.off.(i + 1) - 1 do
                let j = g.Graph.nbr.(s) and eid = g.Graph.eid.(s) in
                let h =
                  if l = 0 || b = 0 then 0.0
                  else Satisfaction.static_delta ~quota:b ~list_len:l ~rank:pos.(j)
                in
                expect.(eid) <- (if i < j then h else expect.(eid) +. h)
              done;
              Array.iter (fun j -> pos.(j) <- -1) list
            done;
            let out = ref [] in
            Graph.iter_edges g (fun eid u v ->
                let expect = expect.(eid) in
                let got = Weights.weight inst.weights eid in
                if Float.abs (expect -. got) > 1e-9 || Float.is_nan got then
                  out :=
                    Violation.v ~checker:"weight-symmetry" (Violation.Edge (u, v))
                      ~expected:
                        (Printf.sprintf "w(%d,%d) = %.6f = dS_%d(%d) + dS_%d(%d)" u v
                           expect u v v u)
                      ~actual:(Printf.sprintf "%.6f" got)
                    :: !out);
            List.rev !out);
  }

let satisfaction_range =
  {
    name = "satisfaction-range";
    doc = "S_i in [0, 1] and finite (eq. 1)";
    run =
      (fun inst ->
        match inst.prefs with
        | None -> []
        | Some prefs ->
            let cover = (Lazy.force inst.accounting).cover in
            let sums = rank_sums inst prefs in
            let out = ref [] in
            for i = Graph.node_count inst.graph - 1 downto 0 do
              match node_satisfaction prefs i ~count:cover.(i) ~rank_sum:sums.(i) with
              | s ->
                  if Float.is_nan s || s < -1e-9 || s > 1.0 +. 1e-9 then
                    out :=
                      Violation.v ~checker:"satisfaction-range" (Violation.Node i)
                        ~expected:"S_i in [0, 1]"
                        ~actual:(Printf.sprintf "S_i = %.6f" s)
                      :: !out
              | exception Invalid_argument msg ->
                  (* eq. 1 is undefined on this connection list (e.g. it
                     overflows the quota) — that is itself a violation *)
                  out :=
                    Violation.v ~checker:"satisfaction-range" (Violation.Node i)
                      ~expected:"S_i in [0, 1]"
                      ~actual:(Printf.sprintf "S_i undefined (%s)" msg)
                    :: !out
            done;
            !out);
  }

(* each node's lightest selected edge, or -1, from one pass over the
   edges: [heavier] is a strict total order, so the pass order cannot
   change the answer *)
let lightest_selected g w listed =
  let light = Array.make (Graph.node_count g) (-1) in
  let offer x eid =
    if light.(x) < 0 || Weights.heavier w light.(x) eid then light.(x) <- eid
  in
  Graph.iter_edges g (fun eid u v ->
      if listed.(eid) > 0 then begin
        offer u eid;
        offer v eid
      end);
  light

(* greedy-stability core shared by no_blocking_pair / maximality /
   theorem2_certificate, forced at most once per instance through its
   [blocking] / [augmenting] fields *)
let blocking_pairs inst =
  let acc = Lazy.force inst.accounting in
  let residual i = cap inst i - acc.cover.(i) in
  let light = lightest_selected inst.graph inst.weights acc.listed in
  let out = ref [] in
  Graph.iter_edges inst.graph (fun eid u v ->
      if acc.listed.(eid) = 0 then begin
        let beats x =
          if residual x > 0 then cap inst x > 0
          else light.(x) >= 0 && Weights.heavier inst.weights eid light.(x)
        in
        if beats u && beats v then out := (eid, u, v) :: !out
      end);
  List.rev !out

let unmatched_augmenting inst =
  let acc = Lazy.force inst.accounting in
  let out = ref [] in
  Graph.iter_edges inst.graph (fun eid u v ->
      if
        acc.listed.(eid) = 0
        && cap inst u - acc.cover.(u) > 0
        && cap inst v - acc.cover.(v) > 0
      then out := (eid, u, v) :: !out);
  List.rev !out

let make graph weights capacity prefs edges =
  let rec inst =
    {
      graph;
      weights;
      capacity;
      prefs;
      edges;
      accounting = lazy (account inst);
      blocking = lazy (blocking_pairs inst);
      augmenting = lazy (unmatched_augmenting inst);
    }
  in
  inst

let instance ?prefs weights ~capacity ~edges =
  make (Weights.graph weights) weights capacity prefs edges

let of_matching ?prefs weights m =
  let g = Bmatching.graph m in
  make g weights
    (Array.init (Graph.node_count g) (Bmatching.capacity m))
    prefs (Bmatching.edge_ids m)

let no_blocking_pair =
  {
    name = "blocking-pair";
    doc = "no unselected edge beats the lightest selected edge at both endpoints";
    run =
      (fun inst ->
        List.map
          (fun (eid, u, v) ->
            Violation.v ~checker:"blocking-pair" (Violation.Edge (u, v))
              ~expected:"no weighted blocking pair (Lemma 4/6 invariant)"
              ~actual:
                (Printf.sprintf "unselected edge of weight %.6f blocks at both ends"
                   (Weights.weight inst.weights eid)))
          (Lazy.force inst.blocking));
  }

let maximality =
  {
    name = "maximality";
    doc = "no unselected edge has residual capacity at both endpoints";
    run =
      (fun inst ->
        List.map
          (fun (_, u, v) ->
            Violation.v ~checker:"maximality" (Violation.Edge (u, v))
              ~expected:"matching is maximal"
              ~actual:"unselected edge with residual capacity at both endpoints")
          (Lazy.force inst.augmenting));
  }

let exact_weight_limit = 24
let exact_satisfaction_limit = 16

let theorem2_certificate =
  {
    name = "theorem2";
    doc = "w(M) >= 1/2 w(OPT) (measured when small, structural otherwise)";
    run =
      (fun inst ->
        if not (Lazy.force inst.accounting).feasible then []
        else if Graph.edge_count inst.graph <= exact_weight_limit then begin
          let opt =
            Exact.max_weight_value ~max_edges:exact_weight_limit inst.weights
              ~capacity:inst.capacity
          in
          let got =
            List.fold_left
              (fun acc eid -> acc +. Weights.weight inst.weights eid)
              0.0 inst.edges
          in
          if got +. 1e-9 < 0.5 *. opt then
            [
              Violation.v ~checker:"theorem2" Violation.Global
                ~expected:(Printf.sprintf "w(M) >= 1/2 w(OPT) = %.6f" (0.5 *. opt))
                ~actual:(Printf.sprintf "w(M) = %.6f" got);
            ]
          else []
        end
        else begin
          (* structural certificate: maximal + greedy-stable is exactly
             the premise of the Theorem 2 charging argument *)
          let stable = Lazy.force inst.blocking = [] in
          let maximal = Lazy.force inst.augmenting = [] in
          if stable && maximal then []
          else
            [
              Violation.v ~checker:"theorem2" Violation.Global
                ~expected:"maximality + greedy stability (Theorem 2 premise)"
                ~actual:
                  (Printf.sprintf "maximal=%b, greedy-stable=%b" maximal stable);
            ]
        end);
  }

let theorem3_certificate =
  {
    name = "theorem3";
    doc = "S(M) >= 1/4 (1 + 1/b_max) S(OPT), measured on small instances";
    run =
      (fun inst ->
        match inst.prefs with
        | None -> []
        | Some prefs ->
            if
              Graph.edge_count inst.graph > exact_satisfaction_limit
              || not (Lazy.force inst.accounting).feasible
            then []
            else begin
              let _, opt =
                Exact.max_satisfaction_bmatching ~max_edges:exact_satisfaction_limit
                  prefs
              in
              let cover = (Lazy.force inst.accounting).cover in
              let sums = rank_sums inst prefs in
              let got = ref 0.0 in
              for i = 0 to Graph.node_count inst.graph - 1 do
                got :=
                  !got +. node_satisfaction prefs i ~count:cover.(i) ~rank_sum:sums.(i)
              done;
              let got = !got in
              let bmax = Preference.max_quota prefs in
              let bound = 0.25 *. (1.0 +. (1.0 /. float_of_int bmax)) in
              if got +. 1e-9 < bound *. opt then
                [
                  Violation.v ~checker:"theorem3" Violation.Global
                    ~expected:
                      (Printf.sprintf "S(M) >= %.4f S(OPT) = %.6f" bound
                         (bound *. opt))
                    ~actual:(Printf.sprintf "S(M) = %.6f" got);
                ]
              else []
            end);
  }

let all =
  [
    edge_validity;
    quota_feasibility;
    weight_symmetry;
    satisfaction_range;
    no_blocking_pair;
    maximality;
    theorem2_certificate;
    theorem3_certificate;
  ]

let names = List.map (fun c -> c.name) all
let find name = List.find_opt (fun c -> c.name = name) all

(* ------------------------------------------------------------------ *)
(* running and reporting                                                *)
(* ------------------------------------------------------------------ *)

type entry = { checker : t; violations : Violation.t list }
type report = { entries : entry list }

let run ?only inst =
  let checkers =
    match only with
    | None -> all
    | Some names ->
        List.map
          (fun n ->
            match find n with
            | Some c -> c
            | None -> invalid_arg (Printf.sprintf "Checker.run: unknown checker %S" n))
          names
  in
  { entries = List.map (fun c -> { checker = c; violations = c.run inst }) checkers }

let ok r = List.for_all (fun e -> e.violations = []) r.entries
let violations r = List.concat_map (fun e -> e.violations) r.entries
let violation_count r = List.length (violations r)

let pp_report ppf r =
  List.iter
    (fun e ->
      match e.violations with
      | [] -> Format.fprintf ppf "%-18s ok@." e.checker.name
      | vs ->
          Format.fprintf ppf "%-18s %d violation%s@." e.checker.name (List.length vs)
            (if List.length vs = 1 then "" else "s");
          List.iter (fun v -> Format.fprintf ppf "  %a@." Violation.pp v) vs)
    r.entries

let report_to_string r = Format.asprintf "%a" pp_report r
