let all =
  [
    Rules_purity.rule;
    Rules_order.rule;
    Rules_clock.rule;
    Rules_random.rule;
    Rules_float.rule;
    Rules_generic.rule;
    Rules_hashkey.rule;
    Rules_pool.rule;
    Rules_protocol.state_machine;
    Rules_protocol.layer_conformance;
  ]

let names = List.map (fun r -> r.Rule.name) all
let find name = List.find_opt (fun r -> r.Rule.name = name) all
