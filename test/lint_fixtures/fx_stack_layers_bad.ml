(* Two layers built inside one top-level binding, sharing a ref. *)

type mw = {
  mw_name : string;
  on_send : int -> bool;
  on_deliver : int -> bool;
  mw_counters : unit -> (string * int) list;
}

let run () =
  let seen = ref 0 in
  let gate =
    {
      mw_name = "gate";
      on_send = (fun _ -> true);
      on_deliver = (fun _ -> incr seen; true);
      mw_counters = (fun () -> [ ("seen", !seen) ]);
    }
  in
  let count =
    {
      mw_name = "count";
      on_send = (fun _ -> !seen > 0);
      on_deliver = (fun _ -> true);
      mw_counters = (fun () -> [ ("seen", !seen) ]);
    }
  in
  [ gate; count ]
