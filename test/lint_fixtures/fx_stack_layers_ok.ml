(* One builder per layer: a layer reaches another only through what
   its builder is passed. *)

type mw = {
  mw_name : string;
  on_send : int -> bool;
  on_deliver : int -> bool;
  mw_counters : unit -> (string * int) list;
}

let gate_layer () =
  let seen = ref 0 in
  {
    mw_name = "gate";
    on_send = (fun _ -> true);
    on_deliver = (fun _ -> incr seen; true);
    mw_counters = (fun () -> [ ("seen", !seen) ]);
  }

let count_layer ~seen =
  {
    mw_name = "count";
    on_send = (fun _ -> seen () > 0);
    on_deliver = (fun _ -> true);
    mw_counters = (fun () -> [ ("seen", seen ()) ]);
  }

let run () =
  let gate = gate_layer () in
  [ gate; count_layer ~seen:(fun () -> List.length (gate.mw_counters ())) ]
