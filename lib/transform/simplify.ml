let default_rules =
  [
    Rewrites.const_fold_rule;
    Rewrites.algebraic_rule;
    Cse.rule;
    Forward.store_to_fetch_rule;
    Forward.dead_store_rule;
    Dce.rule;
    Reassoc.rule;
  ]

type report = {
  steps : int;
  before : Cdfg.Graph.stats;
  after : Cdfg.Graph.stats;
}

let minimize ?(rules = default_rules) ?seed ?(validate = true) ?verify g =
  let before = Cdfg.Graph.stats g in
  let wr = Pass.run_worklist ?seed ?verify rules g in
  if validate then Cdfg.Graph.validate g;
  { steps = wr.Pass.steps; before; after = Cdfg.Graph.stats g }

let pp_report fmt { steps; before; after } =
  Format.fprintf fmt "@[<v>steps: %d@,before: %a@,after:  %a@]" steps
    Cdfg.Graph.pp_stats before Cdfg.Graph.pp_stats after
