module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (E : ORDERED) = struct
  type t = { mutable data : E.t array; mutable size : int }

  let create ?(capacity = 16) () =
    ignore capacity;
    { data = [||]; size = 0 }

  let length h = h.size
  let is_empty h = h.size = 0

  let ensure_capacity h =
    let cap = Array.length h.data in
    if h.size >= cap then begin
      let ncap = max 16 (2 * cap) in
      let ndata = Array.make ncap h.data.(0) in
      Array.blit h.data 0 ndata 0 h.size;
      h.data <- ndata
    end

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if E.compare h.data.(i) h.data.(parent) < 0 then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && E.compare h.data.(l) h.data.(!smallest) < 0 then smallest := l;
    if r < h.size && E.compare h.data.(r) h.data.(!smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(!smallest);
      h.data.(!smallest) <- tmp;
      sift_down h !smallest
    end

  let add h x =
    if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 x;
    ensure_capacity h;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let min_elt h =
    if h.size = 0 then invalid_arg "Heap.min_elt: empty heap";
    h.data.(0)

  let peek_min_opt h = if h.size = 0 then None else Some h.data.(0)

  let pop_min h =
    if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
    let m = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    m

  let pop_min_opt h = if h.size = 0 then None else Some (pop_min h)

  let of_array a =
    let h = create ~capacity:(Array.length a) () in
    Array.iter (add h) a;
    h

  let to_sorted_list h =
    let rec drain acc = if is_empty h then List.rev acc else drain (pop_min h :: acc) in
    drain []
end

module Keyed = struct
  type t = {
    mutable keys : int array; (* heap order: keys.(i) is the key at heap slot i *)
    mutable prio : float array; (* prio.(i) is the priority at heap slot i *)
    pos : int array; (* pos.(key) = heap slot, or -1 if absent *)
    mutable size : int;
  }

  let create n =
    { keys = Array.make (max n 1) 0; prio = Array.make (max n 1) 0.0; pos = Array.make (max n 1) (-1); size = 0 }

  let is_empty h = h.size = 0
  let mem h k = h.pos.(k) >= 0

  let swap h i j =
    let ki = h.keys.(i) and kj = h.keys.(j) in
    h.keys.(i) <- kj;
    h.keys.(j) <- ki;
    let pi = h.prio.(i) in
    h.prio.(i) <- h.prio.(j);
    h.prio.(j) <- pi;
    h.pos.(kj) <- i;
    h.pos.(ki) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.prio.(i) < h.prio.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
    if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let insert h k p =
    if mem h k then invalid_arg "Heap.Keyed.insert: key already present";
    let i = h.size in
    h.keys.(i) <- k;
    h.prio.(i) <- p;
    h.pos.(k) <- i;
    h.size <- h.size + 1;
    sift_up h i

  let decrease_key h k p =
    let i = h.pos.(k) in
    if i < 0 then raise Not_found;
    if p < h.prio.(i) then begin
      h.prio.(i) <- p;
      sift_up h i
    end

  let insert_or_decrease h k p = if mem h k then decrease_key h k p else insert h k p

  let pop_min h =
    if h.size = 0 then invalid_arg "Heap.Keyed.pop_min: empty heap";
    let k = h.keys.(0) and p = h.prio.(0) in
    h.size <- h.size - 1;
    h.pos.(k) <- -1;
    if h.size > 0 then begin
      let last = h.size in
      h.keys.(0) <- h.keys.(last);
      h.prio.(0) <- h.prio.(last);
      h.pos.(h.keys.(0)) <- 0;
      sift_down h 0
    end;
    (k, p)
end
