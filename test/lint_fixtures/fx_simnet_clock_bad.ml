(* A unit with "simnet" in its name: the simulator manufactures the
   virtual timestamps every layer replays, so even the timing shim is
   off limits there — one wall-clock duration in the delivery loop and
   a replay is no longer bit-identical. *)

let origin () = Owp_util.Clock.now ()

let elapsed t0 = Owp_util.Clock.elapsed_ms ~since:t0

let stamp () = Unix.gettimeofday ()
