let all =
  [
    Rules_purity.rule;
    Rules_order.rule;
    Rules_clock.rule;
    Rules_random.rule;
    Rules_float.rule;
    Rules_generic.rule;
    Rules_hashkey.rule;
    Rules_protocol.state_machine;
    Rules_protocol.layer_conformance;
    Rules_exports.rule;
  ]

let find name = List.find_opt (fun r -> r.Rule.name = name) all
