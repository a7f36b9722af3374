module Guard = Owp_core.Guard

(* node 0's neighbours are 1 and 2; node 3 is a stranger *)
let g4 = Graph.of_edge_list 4 [ (0, 1); (0, 2); (1, 2) ]

let mk ?config ?bound () = Guard.create ?config ?bound ~graph:g4 ~me:0 ()

let prop ?(epoch = 0) claim = { Guard.epoch; body = Guard.Prop { claim } }
let rej ?(epoch = 0) () = { Guard.epoch; body = Guard.Rej }

let offence =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Guard.Stranger -> "stranger"
        | Duplicate_prop -> "duplicate-prop"
        | Duplicate_rej -> "duplicate-rej"
        | Prop_after_rej -> "prop-after-rej"
        | Rej_after_prop -> "rej-after-prop"
        | Stale_epoch -> "stale-epoch"
        | Overclaim -> "overclaim"
        | Claim_mismatch -> "claim-mismatch"
        | Flood -> "flood"))
    ( = )

let check_verdict name (v : Guard.verdict) ~accept ~offence:o ~quarantine =
  Alcotest.(check bool) (name ^ " accept") accept v.Guard.accept;
  Alcotest.(check (option offence)) (name ^ " offence") o v.Guard.offence;
  Alcotest.(check bool) (name ^ " quarantine") quarantine v.Guard.quarantine

let test_legal_traffic () =
  let t = mk () in
  check_verdict "prop from 1"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:true ~offence:None ~quarantine:false;
  check_verdict "rej from 2"
    (Guard.inspect t ~peer:2 (rej ()))
    ~accept:true ~offence:None ~quarantine:false;
  Alcotest.(check (list (pair int offence))) "no offences" [] (Guard.offences t);
  Alcotest.(check (list int)) "no quarantines" [] (Guard.quarantined_peers t)

let test_one_message_per_link () =
  (* the guard enforces the derived invariant: an honest LID peer sends
     at most one protocol message per directed link, ever *)
  let cases =
    [
      ("duplicate prop", prop 0.4, prop 0.4, Guard.Duplicate_prop);
      ("rej after prop", prop 0.4, rej (), Guard.Rej_after_prop);
      ("prop after rej", rej (), prop 0.4, Guard.Prop_after_rej);
      ("duplicate rej", rej (), rej (), Guard.Duplicate_rej);
    ]
  in
  List.iter
    (fun (name, first, second, expected) ->
      let t = mk () in
      check_verdict (name ^ " (setup)")
        (Guard.inspect t ~peer:1 first)
        ~accept:true ~offence:None ~quarantine:false;
      check_verdict name
        (Guard.inspect t ~peer:1 second)
        ~accept:false ~offence:(Some expected) ~quarantine:true;
      Alcotest.(check bool) (name ^ " quarantined") true (Guard.quarantined t ~peer:1);
      (* all further traffic from a quarantined peer is dropped silently *)
      check_verdict (name ^ " dropped")
        (Guard.inspect t ~peer:1 (prop 0.1))
        ~accept:false ~offence:None ~quarantine:false)
    cases

let test_stranger_and_stale_epoch () =
  let t = mk () in
  check_verdict "stranger"
    (Guard.inspect t ~peer:3 (prop 0.4))
    ~accept:false ~offence:(Some Guard.Stranger) ~quarantine:true;
  let t = mk () in
  check_verdict "stale epoch"
    (Guard.inspect t ~peer:1 (prop ~epoch:(-1) 0.4))
    ~accept:false ~offence:(Some Guard.Stale_epoch) ~quarantine:true

let test_overclaim_bound () =
  (* peers' halves obey the public structural bound 1/b *)
  let t = mk ~bound:(fun _ -> 0.5) () in
  check_verdict "within bound"
    (Guard.inspect t ~peer:1 (prop 0.5))
    ~accept:true ~offence:None ~quarantine:false;
  check_verdict "over bound"
    (Guard.inspect t ~peer:2 (prop 0.500001))
    ~accept:false ~offence:(Some Guard.Overclaim) ~quarantine:true

let test_advert_pinning () =
  let t = mk ~bound:(fun _ -> 0.5) () in
  check_verdict "advert accepted"
    (Guard.on_advert t ~peer:1 ~claim:0.4)
    ~accept:true ~offence:None ~quarantine:false;
  check_verdict "consistent claim"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:true ~offence:None ~quarantine:false;
  let t = mk ~bound:(fun _ -> 0.5) () in
  ignore (Guard.on_advert t ~peer:1 ~claim:0.4);
  check_verdict "contradicting claim"
    (Guard.inspect t ~peer:1 (prop 0.3))
    ~accept:false ~offence:(Some Guard.Claim_mismatch) ~quarantine:true

let test_advert_overclaim () =
  let t = mk ~bound:(fun _ -> 0.5) () in
  check_verdict "lying advert"
    (Guard.on_advert t ~peer:1 ~claim:0.75)
    ~accept:false ~offence:(Some Guard.Overclaim) ~quarantine:true;
  Alcotest.(check (list int)) "quarantined at bootstrap" [ 1 ]
    (Guard.quarantined_peers t)

let test_score_threshold () =
  let config = { Guard.default_config with quarantine_threshold = 2.0 } in
  let t = mk ~config () in
  ignore (Guard.inspect t ~peer:1 (prop 0.4));
  check_verdict "first offence tolerated"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:false ~offence:(Some Guard.Duplicate_prop) ~quarantine:false;
  Alcotest.(check (float 1e-9)) "score" 1.0 (Guard.score t ~peer:1);
  check_verdict "second offence crosses"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:false ~offence:(Some Guard.Duplicate_prop) ~quarantine:true

let test_flood_limit () =
  let config =
    { Guard.default_config with quarantine_threshold = 100.0; flood_limit = 3 }
  in
  let t = mk ~config () in
  for _ = 1 to 3 do
    ignore (Guard.inspect t ~peer:1 (prop 0.4))
  done;
  check_verdict "budget exhausted"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:false ~offence:(Some Guard.Flood) ~quarantine:false

let test_copy_and_fingerprint () =
  let t = mk () in
  ignore (Guard.inspect t ~peer:1 (prop 0.4));
  let c = Guard.copy t in
  Alcotest.(check string) "copy preserves state" (Guard.fingerprint t)
    (Guard.fingerprint c);
  ignore (Guard.inspect t ~peer:1 (prop 0.4));
  Alcotest.(check bool) "quarantine changes fingerprint" false
    (String.equal (Guard.fingerprint t) (Guard.fingerprint c));
  Alcotest.(check bool) "copy unaffected" false (Guard.quarantined c ~peer:1);
  Alcotest.(check bool) "original quarantined" true (Guard.quarantined t ~peer:1)

let test_offence_counts () =
  let t = mk () in
  ignore (Guard.inspect t ~peer:1 (prop 0.4));
  ignore (Guard.inspect t ~peer:1 (prop 0.4));
  ignore (Guard.inspect t ~peer:3 (rej ()));
  Alcotest.(check (list (pair string int)))
    "aggregated"
    [ ("duplicate-prop", 1); ("stranger", 1) ]
    (Guard.offence_counts t)

let test_repeated_edge_one_slot () =
  (* the edge list names (0, 1) three times; Graph coalesces it, and
     the guard keeps one link state for the neighbour: the second PROP
     is a duplicate, and the pinned advert is shared *)
  let g = Graph.of_edge_list 3 [ (0, 1); (1, 0); (0, 1); (0, 2) ] in
  let t = Guard.create ~graph:g ~me:0 () in
  check_verdict "advert" (Guard.on_advert t ~peer:1 ~claim:0.4) ~accept:true ~offence:None
    ~quarantine:false;
  check_verdict "mismatched prop"
    (Guard.inspect t ~peer:1 (prop 0.3))
    ~accept:false ~offence:(Some Guard.Claim_mismatch) ~quarantine:true;
  Alcotest.(check (list int)) "one quarantine" [ 1 ] (Guard.quarantined_peers t);
  Alcotest.(check string) "one fingerprint entry" "1prQ1:0x1p+0;" (Guard.fingerprint t);
  let t = Guard.create ~graph:g ~me:0 () in
  check_verdict "first prop"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:true ~offence:None ~quarantine:false;
  check_verdict "second prop"
    (Guard.inspect t ~peer:1 (prop 0.4))
    ~accept:false ~offence:(Some Guard.Duplicate_prop) ~quarantine:true

let test_stranger_survives_copy () =
  (* threshold 2: a stranger's first offence scores without quarantine *)
  let config = { Guard.default_config with quarantine_threshold = 2.0 } in
  let t = mk ~config () in
  ignore (Guard.inspect t ~peer:3 (prop 0.4));
  let c1 = Guard.copy t in
  ignore (Guard.inspect t ~peer:3 (rej ()));
  let c2 = Guard.copy t in
  ignore (Guard.inspect t ~peer:3 (rej ()));
  Alcotest.(check (float 0.0)) "copy before: score" 1.0 (Guard.score c1 ~peer:3);
  Alcotest.(check bool) "copy before: free" false (Guard.quarantined c1 ~peer:3);
  Alcotest.(check (float 0.0)) "copy after: score" 2.0 (Guard.score c2 ~peer:3);
  Alcotest.(check bool) "copy after: quarantined" true (Guard.quarantined c2 ~peer:3);
  Alcotest.(check string) "copy after = original" (Guard.fingerprint t)
    (Guard.fingerprint c2);
  (* the copies own their state: more traffic to one moves only it *)
  ignore (Guard.inspect c1 ~peer:3 (rej ()));
  Alcotest.(check (float 0.0)) "copy scores alone" 2.0 (Guard.score c1 ~peer:3);
  Alcotest.(check (float 0.0)) "original unmoved" 2.0 (Guard.score t ~peer:3);
  Alcotest.(check (float 0.0)) "second copy unmoved" 2.0 (Guard.score c2 ~peer:3)

let test_peers_in_id_order () =
  (* node 3's neighbours are 2 and 5; 0, 4 and 7 are strangers.  Offend
     from all five in scrambled order: both views interleave them by id *)
  let g = Graph.of_edge_list 8 [ (3, 5); (3, 2); (1, 6) ] in
  let t = Guard.create ~graph:g ~me:3 () in
  List.iter
    (fun p -> ignore (Guard.inspect t ~peer:p (prop ~epoch:1 0.1)))
    [ 7; 5; 0; 2; 4 ];
  Alcotest.(check (list int)) "quarantined, ascending" [ 0; 2; 4; 5; 7 ]
    (Guard.quarantined_peers t);
  Alcotest.(check string) "fingerprint, ascending"
    (String.concat ""
       (List.map (fun p -> Printf.sprintf "%dprQ1:0x1p+0;" p) [ 0; 2; 4; 5; 7 ]))
    (Guard.fingerprint t)

let suite =
  [
    Alcotest.test_case "legal traffic passes" `Quick test_legal_traffic;
    Alcotest.test_case "one message per link" `Quick test_one_message_per_link;
    Alcotest.test_case "stranger + stale epoch" `Quick test_stranger_and_stale_epoch;
    Alcotest.test_case "overclaim vs 1/b bound" `Quick test_overclaim_bound;
    Alcotest.test_case "advert pinning" `Quick test_advert_pinning;
    Alcotest.test_case "advert overclaim" `Quick test_advert_overclaim;
    Alcotest.test_case "score threshold" `Quick test_score_threshold;
    Alcotest.test_case "flood limit" `Quick test_flood_limit;
    Alcotest.test_case "copy + fingerprint" `Quick test_copy_and_fingerprint;
    Alcotest.test_case "offence counts" `Quick test_offence_counts;
    Alcotest.test_case "repeated edge, one slot" `Quick test_repeated_edge_one_slot;
    Alcotest.test_case "stranger survives copy" `Quick test_stranger_survives_copy;
    Alcotest.test_case "peers in id order" `Quick test_peers_in_id_order;
  ]
