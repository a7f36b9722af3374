(* A Pool task mutating an event wheel captured from outside the task:
   a wheel belongs to one owner, so a shared wheel races like a shared
   Hashtbl.  Both closures below write to the wheel that [race]
   creates, so the rule must flag the add line and the pop line, and
   nothing else in this file. *)

let race xs =
  let w = Owp_util.Event_wheel.create () in
  ignore (Owp_util.Pool.map_list ~jobs:2 (fun x -> Owp_util.Event_wheel.add w ~at:1.0 ~seq:x x) xs);
  ignore (Owp_util.Pool.map_list ~jobs:2 (fun _ -> Owp_util.Event_wheel.pop w) xs);
  Owp_util.Event_wheel.size w

