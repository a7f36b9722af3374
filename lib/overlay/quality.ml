module Bmatching = Owp_matching.Bmatching
module Stats = Owp_util.Stats

type t = {
  nodes : int;
  total : float;
  mean : float;
  min : float;
  p05 : float;
  median : float;
  jain : float;
  saturated_fraction : float;
  fully_satisfied_fraction : float;
}

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if Float.equal s2 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end

let measure prefs m satisfaction =
  let g = Preference.graph prefs in
  let profile = ref [] in
  let saturated = ref 0 and full = ref 0 and count = ref 0 in
  for i = 0 to Graph.node_count g - 1 do
    if Preference.list_len prefs i > 0 && Preference.quota prefs i > 0 then begin
      incr count;
      let s = satisfaction.(i) in
      profile := s :: !profile;
      if Bmatching.residual m i = 0 then incr saturated;
      if s >= 1.0 -. 1e-9 then incr full
    end
  done;
  let xs = Array.of_list !profile in
  if Array.length xs = 0 then
    {
      nodes = 0;
      total = 0.0;
      mean = 0.0;
      min = 0.0;
      p05 = 0.0;
      median = 0.0;
      jain = 1.0;
      saturated_fraction = 0.0;
      fully_satisfied_fraction = 0.0;
    }
  else begin
    let s = Stats.summarize xs in
    {
      nodes = !count;
      total = Array.fold_left ( +. ) 0.0 xs;
      mean = s.Stats.mean;
      min = s.Stats.min;
      p05 = s.Stats.p05;
      median = s.Stats.median;
      jain = jain_index xs;
      saturated_fraction = float_of_int !saturated /. float_of_int !count;
      fully_satisfied_fraction = float_of_int !full /. float_of_int !count;
    }
  end

let pp ppf t =
  Format.fprintf ppf
    "nodes=%d mean=%.4f min=%.4f p05=%.4f median=%.4f jain=%.4f saturated=%.1f%% top-b=%.1f%%"
    t.nodes t.mean t.min t.p05 t.median t.jain
    (100.0 *. t.saturated_fraction)
    (100.0 *. t.fully_satisfied_fraction)
