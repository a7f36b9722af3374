(* A simnet-named unit keying generic Hashtbls by tuples: every lookup
   on lines 7, 9 and 11 allocates the key and hashes it structurally. *)

type link = int * int

let clocks : (int * int, float) Hashtbl.t = Hashtbl.create 8
let last ~src ~dst = Hashtbl.find_opt clocks (src, dst)
let seen : (link, unit) Hashtbl.t = Hashtbl.create 8
let mark ~src ~dst = if not (Hashtbl.mem seen (src, dst)) then Hashtbl.replace seen (src, dst) ()
let kinds : (int * int * bool, unit) Hashtbl.t = Hashtbl.create 8
let forget src dst kind = Hashtbl.remove kinds (src, dst, kind)
