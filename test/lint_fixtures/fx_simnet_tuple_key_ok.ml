(* The packed twin of fx_simnet_tuple_key_bad.ml: an int key per
   directed link.  Enumerating a tuple-keyed table is not a lookup. *)

let nodes = 16
let clocks : (int, float) Hashtbl.t = Hashtbl.create 8
let last ~src ~dst = Hashtbl.find_opt clocks ((src * nodes) + dst)
let links (tbl : (int * int, unit) Hashtbl.t) = Hashtbl.length tbl
