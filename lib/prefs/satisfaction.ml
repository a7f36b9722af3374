let check_basic ~quota ~list_len =
  if quota <= 0 then invalid_arg "Satisfaction: quota must be positive";
  if list_len <= 0 then invalid_arg "Satisfaction: list_len must be positive"

let delta ~quota ~list_len ~rank ~position =
  check_basic ~quota ~list_len;
  if rank < 0 || rank >= list_len then invalid_arg "Satisfaction.delta: rank out of range";
  if position < 0 || position >= quota then
    invalid_arg "Satisfaction.delta: position out of range";
  let b = float_of_int quota and l = float_of_int list_len in
  (1.0 /. b) -. (float_of_int (rank - position) /. (b *. l))

(* eq. 5's ΔS̄ = 1/b − r/(b·l), the one place it is written *)
let static_delta_unchecked ~quota ~list_len ~rank =
  let b = float_of_int quota and l = float_of_int list_len in
  (1.0 /. b) -. (float_of_int rank /. (b *. l))

let static_delta ~quota ~list_len ~rank =
  check_basic ~quota ~list_len;
  if rank < 0 || rank >= list_len then
    invalid_arg "Satisfaction.static_delta: rank out of range";
  static_delta_unchecked ~quota ~list_len ~rank

let checked_ranks ~quota ~list_len ranks =
  check_basic ~quota ~list_len;
  let c = List.length ranks in
  if c > quota then invalid_arg "Satisfaction: more connections than quota";
  List.iter
    (fun r ->
      if r < 0 || r >= list_len then invalid_arg "Satisfaction: rank out of range")
    ranks;
  c

let of_rank_sum ~quota ~list_len ~count ~rank_sum =
  check_basic ~quota ~list_len;
  if count > quota then invalid_arg "Satisfaction: more connections than quota";
  let b = float_of_int quota and l = float_of_int list_len and cf = float_of_int count in
  (cf /. b) +. (cf *. (cf -. 1.0) /. (2.0 *. b *. l)) -. (float_of_int rank_sum /. (b *. l))

let of_ranks ~quota ~list_len ranks =
  let count = checked_ranks ~quota ~list_len ranks in
  of_rank_sum ~quota ~list_len ~count ~rank_sum:(List.fold_left ( + ) 0 ranks)

let static_of_ranks ~quota ~list_len ranks =
  let c = checked_ranks ~quota ~list_len ranks in
  let b = float_of_int quota and l = float_of_int list_len and cf = float_of_int c in
  let rank_sum = float_of_int (List.fold_left ( + ) 0 ranks) in
  (cf /. b) -. (rank_sum /. (b *. l))
