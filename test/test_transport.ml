module Sim = Owp_simnet.Simnet
module Tr = Owp_simnet.Transport

(* [mk ?config ?fifo ?faults nodes] builds a net + transport pair that
   records deliveries per directed link, in arrival order *)
let mk ?config ?(fifo = true) ?(faults = Sim.no_faults) ?(seed = 3) nodes =
  let net = Sim.create ~seed ~fifo ~faults ~nodes ~delay:(Sim.Uniform (0.5, 1.5)) () in
  let got : (int * int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let dead = ref [] in
  let tr =
    Tr.create ?config net
      ~on_deliver:(fun ~src ~dst m ->
        let cell =
          match Hashtbl.find_opt got (src, dst) with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.replace got (src, dst) c;
              c
        in
        cell := m :: !cell)
      ~on_peer_dead:(fun ~node ~peer -> dead := (node, peer) :: !dead)
  in
  let link src dst =
    match Hashtbl.find_opt got (src, dst) with
    | Some c -> List.rev !c
    | None -> []
  in
  (net, tr, link, dead)

let test_clean_channel () =
  let net, tr, link, dead = mk 2 in
  for i = 1 to 20 do
    Tr.send tr ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "in order, once" (List.init 20 (fun i -> i + 1)) (link 0 1);
  Alcotest.(check int) "no retransmissions" 0 (Tr.retransmissions tr);
  Alcotest.(check int) "one data frame per payload" 20 (Tr.data_sent tr);
  Alcotest.(check bool) "acks flowed" true (Tr.acks_sent tr > 0);
  Alcotest.(check (list (pair int int))) "nobody dead" [] !dead

let test_masks_loss () =
  let faults = Sim.faults ~drop:0.5 () in
  let net, tr, link, dead = mk ~faults 2 in
  for i = 1 to 50 do
    Tr.send tr ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "all 50 despite 50% loss" (List.init 50 (fun i -> i + 1))
    (link 0 1);
  Alcotest.(check bool) "loss actually happened" true (Sim.messages_dropped net > 0);
  Alcotest.(check bool) "recovered by retransmission" true (Tr.retransmissions tr > 0);
  Alcotest.(check (list (pair int int))) "nobody dead" [] !dead

let test_masks_duplication () =
  let faults = Sim.faults ~duplicate:1.0 () in
  let net, tr, link, _ = mk ~faults 2 in
  for i = 1 to 30 do
    Tr.send tr ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "exactly once" (List.init 30 (fun i -> i + 1)) (link 0 1);
  Alcotest.(check bool) "dedup did work" true (Tr.duplicates_suppressed tr > 0)

let test_masks_reordering () =
  let faults = Sim.faults ~reorder:0.4 () in
  let net, tr, link, _ = mk ~fifo:false ~faults 2 in
  for i = 1 to 40 do
    Tr.send tr ~src:0 ~dst:1 i
  done;
  Sim.run net;
  Alcotest.(check (list int)) "reassembled in order" (List.init 40 (fun i -> i + 1))
    (link 0 1)

let test_give_up () =
  (* a fully severed link: the sender must not retry forever *)
  let config = { Tr.default_config with rto_initial = 1.0; max_retries = 3 } in
  let faults = Sim.faults ~drop:1.0 () in
  let net, tr, link, dead = mk ~config ~faults 2 in
  Tr.send tr ~src:0 ~dst:1 99;
  Sim.run net;
  Alcotest.(check (list int)) "nothing arrives" [] (link 0 1);
  Alcotest.(check (list (pair int int))) "peer declared dead once" [ (0, 1) ] !dead;
  Alcotest.(check bool) "queryable" true (Tr.peer_dead tr ~node:0 ~peer:1);
  Alcotest.(check int) "counted" 1 (Tr.peers_declared_dead tr);
  (* sends to a dead peer are discarded, not retried *)
  let sent = Tr.data_sent tr in
  Tr.send tr ~src:0 ~dst:1 100;
  Sim.run net;
  Alcotest.(check int) "discarded" sent (Tr.data_sent tr)

let test_crash_restart_epochs () =
  let config = { Tr.default_config with rto_initial = 1.0; max_retries = 4 } in
  let net = Sim.create ~seed:1 ~nodes:2 ~delay:Sim.Unit () in
  let got = ref [] and dead = ref [] in
  let tr_box = ref None in
  let tr =
    Tr.create ~config net
      ~on_deliver:(fun ~src ~dst:_ m -> got := (src, m) :: !got)
      ~on_peer_dead:(fun ~node ~peer -> dead := (node, peer) :: !dead)
  in
  tr_box := Some tr;
  Tr.send tr ~src:0 ~dst:1 1;
  (* delivered at t=1 *)
  Sim.schedule net ~delay:2.0 (fun () -> Sim.crash net 1);
  Sim.schedule net ~delay:3.5 (fun () -> Tr.send tr ~src:0 ~dst:1 2);
  (* lost at t=4.5: node 1 is down *)
  Sim.schedule net ~delay:6.0 (fun () ->
      Sim.restart net 1;
      Tr.restart_node tr 1);
  (* the restarted incarnation opens a fresh stream: its higher epoch
     resets the peer's receive state *)
  Sim.schedule net ~delay:7.0 (fun () -> Tr.send tr ~src:1 ~dst:0 3);
  Sim.run net;
  let from0 = List.rev_map snd (List.filter (fun (s, _) -> s = 0) !got) in
  let from1 = List.rev_map snd (List.filter (fun (s, _) -> s = 1) !got) in
  Alcotest.(check (list int)) "pre-crash delivery only" [ 1 ] from0;
  Alcotest.(check (list int)) "post-restart stream works" [ 3 ] from1;
  (* payload 2 can never be delivered (the amnesiac receiver restarts
     its sequence space): the sender gives up rather than spin *)
  Alcotest.(check (list (pair int int))) "stuck link declared dead" [ (0, 1) ] !dead

let test_window_growth_and_wrap () =
  (* five payloads grow the ring to 8 slots and are acked (base 5), then
     eleven more go out into a burst that cuts every frame: the window
     holds seqs 5..15, wraps around the 8 slots and doubles them.  The
     one retransmission round after the burst must resend 5..15 in
     ascending order: on a FIFO link with unit delay each resent frame
     then arrives after the one before, so each payload is delivered at
     its own, later instant *)
  let config = { Tr.default_config with rto_jitter = 0.0 } in
  let net = Sim.create ~seed:5 ~nodes:2 ~delay:Sim.Unit () in
  Sim.set_outage net
    (Some (fun ~at ~src:_ ~dst:_ -> if at >= 10.0 && at < 14.5 then 1.0 else 0.0));
  let got = ref [] in
  let tr =
    Tr.create ~config net
      ~on_deliver:(fun ~src:_ ~dst:_ m -> got := (m, Sim.now net) :: !got)
      ~on_peer_dead:(fun ~node:_ ~peer:_ -> Alcotest.fail "nobody dies")
  in
  for i = 1 to 5 do
    Tr.send tr ~src:0 ~dst:1 i
  done;
  Sim.schedule net ~delay:9.5 (fun () ->
      for i = 6 to 16 do
        Tr.send tr ~src:0 ~dst:1 i
      done);
  Sim.run net;
  let got = List.rev !got in
  Alcotest.(check (list int)) "exactly once, in order" (List.init 16 (fun i -> i + 1))
    (List.map fst got);
  Alcotest.(check int) "one round resends the window" 11 (Tr.retransmissions tr);
  let times = List.filteri (fun i _ -> i >= 5) (List.map snd got) in
  List.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "payload %d arrives after %d" (i + 6) (i + 5))
          true
          (t > List.nth times (i - 1)))
    times

let test_stale_timer_after_restart () =
  (* node 0 sends into a cut network, so its timer (due at t = 4) is
     armed when it crashes and restarts; the new incarnation sends at
     t = 2.5 and arms its own timer (due at 6.5).  The stale timer must
     not resend the new window *)
  let config = { Tr.default_config with rto_jitter = 0.0 } in
  let net = Sim.create ~seed:5 ~nodes:2 ~delay:Sim.Unit () in
  Sim.set_outage net (Some (fun ~at ~src:_ ~dst:_ -> if at < 10.0 then 1.0 else 0.0));
  let got = ref [] in
  let tr =
    Tr.create ~config net
      ~on_deliver:(fun ~src:_ ~dst:_ m -> got := m :: !got)
      ~on_peer_dead:(fun ~node:_ ~peer:_ -> Alcotest.fail "nobody dies")
  in
  Tr.send tr ~src:0 ~dst:1 1;
  Sim.schedule net ~delay:1.0 (fun () -> Sim.crash net 0);
  Sim.schedule net ~delay:2.0 (fun () ->
      Sim.restart net 0;
      Tr.restart_node tr 0);
  Sim.schedule net ~delay:2.5 (fun () -> Tr.send tr ~src:0 ~dst:1 2);
  let before_new_timer = ref (-1) in
  Sim.schedule net ~delay:6.0 (fun () -> before_new_timer := Tr.retransmissions tr);
  Sim.run net;
  Alcotest.(check int) "no resend before the new timer" 0 !before_new_timer;
  Alcotest.(check (list int)) "only the new incarnation's payload" [ 2 ] (List.rev !got)

let test_ack_after_give_up () =
  (* data arrives, but every ACK before t = 3.5 is cut: with rto 1 and
     two retries the sender gives up at t = 3, and the ACK for its last
     resend lands at t = 4.  It must not revive the link *)
  let config =
    {
      Tr.default_config with
      rto_initial = 1.0;
      rto_backoff = 1.0;
      rto_jitter = 0.0;
      max_retries = 2;
    }
  in
  let net = Sim.create ~seed:5 ~nodes:2 ~delay:Sim.Unit () in
  let gave_up = ref infinity and late_acks = ref 0 in
  Sim.set_outage net
    (Some
       (fun ~at ~src ~dst:_ ->
         if src = 1 && at < 3.5 then 1.0
         else begin
           if src = 1 && at > !gave_up then incr late_acks;
           0.0
         end));
  let dead = ref 0 in
  let tr =
    Tr.create ~config net
      ~on_deliver:(fun ~src:_ ~dst:_ _ -> ())
      ~on_peer_dead:(fun ~node:_ ~peer:_ ->
        incr dead;
        gave_up := Sim.now net)
  in
  Tr.send tr ~src:0 ~dst:1 1;
  Sim.run net;
  Alcotest.(check bool) "an ACK arrived after the give-up" true (!late_acks > 0);
  Alcotest.(check int) "declared dead once" 1 !dead;
  Alcotest.(check bool) "still dead" true (Tr.peer_dead tr ~node:0 ~peer:1);
  Alcotest.(check int) "nothing resumed" 0 (Tr.links_resumed tr);
  let sent = Tr.data_sent tr and resent = Tr.retransmissions tr in
  Tr.send tr ~src:0 ~dst:1 2;
  Sim.run net;
  Alcotest.(check int) "sends still discarded" sent (Tr.data_sent tr);
  Alcotest.(check int) "no resend" resent (Tr.retransmissions tr)

let prop_exactly_once_in_order =
  (* the tentpole property: under any tested mix of loss, duplication
     and reordering, every directed link delivers exactly the sent
     sequence, in order *)
  QCheck2.Test.make ~name:"transport: exactly-once in-order under faults" ~count:60
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_range 0 2) (int_range 0 1) bool)
    (fun (seed, di, dupi, fifo) ->
      let drop = [| 0.0; 0.2; 0.4 |].(di) in
      let dup = [| 0.0; 0.3 |].(dupi) in
      let faults = Sim.faults ~drop ~duplicate:dup ~reorder:0.2 () in
      let net, tr, link, dead = mk ~seed ~fifo ~faults 3 in
      let links = [ (0, 1); (1, 0); (1, 2); (2, 0) ] in
      for i = 1 to 15 do
        List.iter (fun (s, d) -> Tr.send tr ~src:s ~dst:d i) links
      done;
      Sim.run net;
      !dead = []
      && List.for_all
           (fun (s, d) -> link s d = List.init 15 (fun i -> i + 1))
           links)

let test_seed_sweep () =
  (* deterministic fuzz: 120 seeds of random drop x duplicate x reorder
     rates.  Survivable channels (drop < 1) must deliver exactly the
     sent sequence in order on every link with nobody declared dead;
     severed channels (drop = 1) must deliver nothing and account for
     the give-up: each directed link with traffic declares its peer dead
     exactly once *)
  for seed = 1 to 120 do
    let rng = Owp_util.Prng.create (0xF00D + seed) in
    let severed = seed mod 6 = 0 in
    let drop = if severed then 1.0 else Owp_util.Prng.float rng 0.5 in
    let dup = Owp_util.Prng.float rng 0.8 in
    let reorder = Owp_util.Prng.float rng 0.5 in
    let fifo = seed mod 2 = 0 in
    let faults = Sim.faults ~drop ~duplicate:dup ~reorder () in
    (* severed links give up fast; survivable ones get the default
       (patient) retry budget so a 50% channel never falsely dies *)
    let config =
      if severed then { Tr.default_config with rto_initial = 1.0; max_retries = 4 }
      else Tr.default_config
    in
    let net, tr, link, dead = mk ~config ~seed ~fifo ~faults 3 in
    let links = [ (0, 1); (1, 2); (2, 0) ] in
    let payloads = 1 + (seed mod 12) in
    for i = 1 to payloads do
      List.iter (fun (s, d) -> Tr.send tr ~src:s ~dst:d i) links
    done;
    Sim.run net;
    let label fmt =
      Printf.sprintf "seed %d (drop %.2f dup %.2f reorder %.2f): %s" seed drop
        dup reorder fmt
    in
    if severed then begin
      List.iter
        (fun (s, d) ->
          Alcotest.(check (list int)) (label "nothing arrives") [] (link s d))
        links;
      Alcotest.(check int)
        (label "every link gave up exactly once")
        (List.length links)
        (Tr.peers_declared_dead tr);
      List.iter
        (fun (s, d) ->
          Alcotest.(check bool) (label "dead queryable") true
            (Tr.peer_dead tr ~node:s ~peer:d))
        links
    end
    else begin
      let expect = List.init payloads (fun i -> i + 1) in
      List.iter
        (fun (s, d) ->
          Alcotest.(check (list int)) (label "exactly once, in order") expect
            (link s d))
        links;
      Alcotest.(check (list (pair int int))) (label "nobody dead") [] !dead
    end
  done

let suite =
  [
    Alcotest.test_case "clean channel" `Quick test_clean_channel;
    Alcotest.test_case "masks loss" `Quick test_masks_loss;
    Alcotest.test_case "masks duplication" `Quick test_masks_duplication;
    Alcotest.test_case "masks reordering" `Quick test_masks_reordering;
    Alcotest.test_case "bounded retries give up" `Quick test_give_up;
    Alcotest.test_case "crash/restart epochs" `Quick test_crash_restart_epochs;
    Alcotest.test_case "window growth and wrap" `Quick test_window_growth_and_wrap;
    Alcotest.test_case "stale timer after restart" `Quick test_stale_timer_after_restart;
    Alcotest.test_case "ACK after give-up" `Quick test_ack_after_give_up;
    Alcotest.test_case "120-seed fault sweep" `Quick test_seed_sweep;
    QCheck_alcotest.to_alcotest prop_exactly_once_in_order;
  ]
