(* E2 — Lemma 1: discarding the dynamic satisfaction term loses at most
   a factor ½(1 + 1/b_max).

   For each quota b we (a) construct the adversarial connection set the
   proof uses (a full quota drawn from the bottom of the preference
   list) and verify the static/full ratio matches the bound exactly,
   and (b) sample random connection sets to show typical ratios are far
   better than worst case. *)

module Tbl = Owp_util.Tablefmt
module Prng = Owp_util.Prng

let adversarial_ratio ~quota ~list_len =
  (* connections occupying the last [quota] ranks, as in the proof *)
  let ranks = List.init quota (fun k -> list_len - quota + k) in
  let s_static = Satisfaction.static_of_ranks ~quota ~list_len ranks in
  let s_full = Satisfaction.of_ranks ~quota ~list_len ranks in
  s_static /. s_full

let random_ratio rng ~quota ~list_len =
  let size = 1 + Prng.int rng quota in
  let ranks = Array.to_list (Prng.sample_without_replacement rng size list_len) in
  let s_full = Satisfaction.of_ranks ~quota ~list_len ranks in
  if s_full <= 0.0 then 1.0 else Satisfaction.static_of_ranks ~quota ~list_len ranks /. s_full

let run ~quick =
  let samples = if quick then 200 else 5000 in
  let rng = Prng.create 0xE2 in
  let t =
    Tbl.create
      ~title:
        "E2 (Lemma 1): static-term approximation ratio vs the 1/2(1+1/b) bound (L = 64)"
      [
        ("b", Tbl.Right);
        ("bound 1/2(1+1/b)", Tbl.Right);
        ("adversarial ratio", Tbl.Right);
        ("random mean", Tbl.Right);
        ("random min", Tbl.Right);
        ("bound holds", Tbl.Left);
      ]
  in
  let list_len = 64 in
  let holds = ref true and tight = ref true in
  List.iter
    (fun b ->
      let bound = Owp_core.Theory.lemma1_bound ~bmax:b in
      let adv = adversarial_ratio ~quota:b ~list_len in
      let rand = List.init samples (fun _ -> random_ratio rng ~quota:b ~list_len) in
      let mean = Exp_common.mean rand and mn = Exp_common.minimum rand in
      let ok = adv >= bound -. 1e-9 && mn >= bound -. 1e-9 in
      holds := !holds && ok;
      tight := !tight && Float.abs (adv -. bound) < 1e-9;
      Tbl.add_row t
        [
          Tbl.icell b;
          Tbl.fcell bound;
          Tbl.fcell adv;
          Tbl.fcell mean;
          Tbl.fcell mn;
          (if ok then "yes" else "VIOLATED");
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  ( [ t ],
    [
      ("static/full ratio >= 1/2(1+1/b) on every connection set (Lemma 1)", !holds);
      ("the proof's bottom-of-list connection set attains the bound", !tight);
    ] )

let exp =
  {
    Exp_common.id = "E2";
    title = "Static vs full satisfaction ratio";
    paper_ref = "Lemma 1";
    run;
  }
