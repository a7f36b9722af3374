(* clock-hygiene: wall-clock reads are the quietest determinism leak —
   a timestamp that reaches a weight, a seed, or a tie-break makes
   replay impossible and no test sees it until it flakes.  Every
   wall-time read therefore lives in the one designated shim
   (Owp_util.Clock); everything else consumes measured durations it
   hands out. *)

let name = "clock-hygiene"
let shim = "clock.ml"

let banned =
  [
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "times" ];
    [ "Sys"; "time" ];
  ]

(* The serving layer is stricter still: every figure it reports is
   virtual time, so even the measured-duration shim is off limits
   there — one wall-clock duration reaching a latency percentile and
   the byte-identical replay guarantee is gone. *)
let serve_shim = [ "Owp_util"; "Clock" ]

let in_serve_layer (ctx : Rule.context) =
  Rule.contains ctx.Rule.file "lib/serve" || Rule.contains ctx.Rule.basename "serve"

(* The simulator is held to the serve layer's standard: Simnet and its
   event wheel *manufacture* the virtual timestamps every layer above
   replays, so a measured wall-clock duration reaching the delivery
   loop would silently break the bit-identical replay every run is
   verified against. *)
let in_simnet_layer (ctx : Rule.context) =
  Rule.contains ctx.Rule.file "lib/simnet"
  || Rule.contains ctx.Rule.basename "simnet"
  || Rule.contains ctx.Rule.basename "event_wheel"

let has_prefix prefix parts =
  let rec go = function
    | [], _ -> true
    | p :: ps, q :: qs when String.equal p q -> go (ps, qs)
    | _ -> false
  in
  go (prefix, parts)

let check (ctx : Rule.context) =
  if ctx.Rule.basename = shim then []
  else begin
    let serve = in_serve_layer ctx in
    let simnet = in_simnet_layer ctx in
    let out = ref [] in
    Rule.iter_expressions ctx.Rule.structure (fun e ->
        match Rule.ident_of e with
        | None -> ()
        | Some (p, _) ->
            let parts = Rule.stdlib_head (Rule.path_parts p) in
            if List.mem parts banned then
              out :=
                Finding.v ~rule:name ~file:ctx.Rule.file ~loc:e.Typedtree.exp_loc
                  (Printf.sprintf
                     "wall-clock read `%s' outside the timing shim \
                      (use Owp_util.Clock)"
                     (String.concat "." parts))
                :: !out
            else if (serve || simnet) && has_prefix serve_shim parts then
              out :=
                Finding.v ~rule:name ~file:ctx.Rule.file ~loc:e.Typedtree.exp_loc
                  (Printf.sprintf
                     (if serve then
                        "timing-shim read `%s' in the serving layer; serve \
                         figures are virtual time only"
                      else
                        "timing-shim read `%s' in the simulator; simulated \
                         time is virtual only")
                     (String.concat "." parts))
                :: !out);
    List.rev !out
  end

let rule =
  {
    Rule.name;
    doc =
      "wall-clock reads (Unix.gettimeofday, Sys.time, ...) only in the \
       designated timing shim lib/util/clock.ml; the serving layer and the \
       simulator (simnet, event_wheel) may not read even the shim";
    check;
  }
