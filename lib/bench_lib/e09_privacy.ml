(* E9 — the privacy/locality claim (§1, §5): peers disclose only the
   ΔS̄ value per incident edge (one scalar to each neighbour) plus
   PROP/REJ bits — never the metric, never the full list, and nothing
   beyond the immediate neighbourhood.

   Disclosure accounting per node:
   - LID:         deg_i scalars (the weight handshake) + its PROP/REJ traffic
   - list gossip: deg_i ranks to every neighbour  => deg_i² entries
   - flooding:    the whole list to everyone      => n · deg_i entries *)

module Tbl = Owp_util.Tablefmt

let run ~quick =
  let ns = if quick then [ 200 ] else [ 200; 1000; 5000 ] in
  let t =
    Tbl.create
      ~title:"E9: information disclosed per node (entries), LID vs strawmen (avg deg 8, b = 3)"
      [
        ("n", Tbl.Right);
        ("LID scalars/node", Tbl.Right);
        ("LID msgs/node", Tbl.Right);
        ("neighbour gossip", Tbl.Right);
        ("global flooding", Tbl.Right);
        ("metric disclosed?", Tbl.Left);
      ]
  in
  let fewer = ref true in
  List.iter
    (fun n ->
      let inst = Exp_common.gnm ~seed:n ~deg:8.0 ~n ~quota:3 in
      let g = inst.graph in
      let lid = Exp_common.run_lid inst in
      let total_deg = 2 * Graph.edge_count g in
      let avg_deg = float_of_int total_deg /. float_of_int n in
      let gossip =
        let acc = ref 0.0 in
        for v = 0 to n - 1 do
          let d = float_of_int (Graph.degree g v) in
          acc := !acc +. (d *. d)
        done;
        !acc /. float_of_int n
      in
      let msgs =
        float_of_int (lid.Owp_core.Stack.prop_count + lid.Owp_core.Stack.rej_count)
        /. float_of_int n
      in
      fewer := !fewer && avg_deg < gossip;
      Tbl.add_row t
        [
          Tbl.icell n;
          Tbl.fcell2 avg_deg;
          Tbl.fcell2 msgs;
          Tbl.fcell2 gossip;
          Tbl.fcell2 (float_of_int n *. avg_deg);
          "never (only DS-bar scalars)";
        ])
    ns;
  ([ t ], [ ("LID discloses fewer entries per node than neighbour gossip at every n", !fewer) ])

let exp =
  {
    Exp_common.id = "E9";
    title = "Locality and metric privacy";
    paper_ref = "§1, §5 (weight exchange)";
    run;
  }
