(* E5 — Lemma 5 (termination) and message complexity of LID.

   The paper proves LID always terminates; the interesting engineering
   quantities are how many PROP/REJ messages that takes.  Sweep n (at
   fixed average degree and quota) and quota b (at fixed n). *)

module Tbl = Owp_util.Tablefmt

(* the columns of E5a and E5b, one row per run *)
let columns =
  List.map (fun c -> (c, Tbl.Right))
    [ "n"; "m"; "b"; "PROP"; "REJ"; "msgs/node"; "msgs/edge"; "dropped"; "v-time" ]
  @ [ ("terminated", Tbl.Left) ]

let row t (inst : Workloads.instance) b =
  let r = Exp_common.run_lid inst in
  let n = Graph.node_count inst.graph and m = Graph.edge_count inst.graph in
  let total = r.Owp_core.Stack.prop_count + r.Owp_core.Stack.rej_count in
  Tbl.add_row t
    [
      Tbl.icell n;
      Tbl.icell m;
      Tbl.icell b;
      Tbl.icell r.Owp_core.Stack.prop_count;
      Tbl.icell r.Owp_core.Stack.rej_count;
      Tbl.fcell2 (float_of_int total /. float_of_int n);
      Tbl.fcell2 (float_of_int total /. float_of_int (max m 1));
      Tbl.icell r.Owp_core.Stack.dropped;
      Tbl.fcell2 r.Owp_core.Stack.completion_time;
      Exp_common.quiescence_cell r;
    ];
  r.Owp_core.Stack.all_terminated

let run ~quick =
  let ns = if quick then [ 200; 1000 ] else [ 200; 1000; 5000; 20000 ] in
  let t1 =
    Tbl.create
      ~title:
        "E5a (Lemma 5): LID termination and message complexity vs n (avg deg 8, b = 3)"
      columns
  in
  let clean = ref true in
  List.iter
    (fun n ->
      let inst = Exp_common.gnm ~seed:n ~deg:8.0 ~n ~quota:3 in
      clean := row t1 inst 3 && !clean)
    ns;
  let t2 =
    Tbl.create ~title:"E5b: message complexity vs quota b (G(n,m) avg deg 12, n = 2000)"
      columns
  in
  let bs = if quick then [ 1; 4 ] else [ 1; 2; 4; 8; 12 ] in
  List.iter
    (fun b ->
      let inst = Exp_common.gnm ~seed:(100 + b) ~deg:12.0 ~n:2000 ~quota:b in
      clean := row t2 inst b && !clean)
    bs;
  ([ t1; t2 ], [ ("LID terminates on every clean channel (Lemma 5)", !clean) ])

let exp =
  {
    Exp_common.id = "E5";
    title = "Termination and message complexity";
    paper_ref = "Lemma 5";
    run;
  }
