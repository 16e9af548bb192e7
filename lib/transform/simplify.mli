(** The "full simplification" pipeline (paper Fig. 3's caption: "after
    complete loop unrolling and full simplification").

    One engine runs every rule: {!Pass.run_worklist} visits every node
    once in topological order and thereafter re-examines only the
    neighbourhood of each rewrite — near-linear in graph size. *)

val default_rules : Pass.rule list
(** Constant folding, algebraic simplification, CSE, store-to-fetch
    forwarding, dead-store elimination, dead-node elimination and
    associative rebalancing, applied in that order on each visited node
    (rebalancing is settled: it runs once the others quiesce). *)

type report = {
  steps : int;  (** node visits (revisits included) *)
  before : Cdfg.Graph.stats;
  after : Cdfg.Graph.stats;
}

val minimize :
  ?rules:Pass.rule list ->
  ?seed:Cdfg.Graph.id list ->
  ?validate:bool ->
  ?verify:Pass.verify_hook ->
  Cdfg.Graph.t ->
  report
(** Mutates the graph to its minimised form under [rules] (default
    {!default_rules}) and reports the shrinkage. [validate] (default
    true) checks invariants once at the end ({!Cdfg.Graph.validate}).
    [~seed] restricts the initial visit to the given dirty nodes — the
    entry point of the certified bit-level stage's cleanup
    ([Flow.bitopt_stage]), which re-minimises only what a verified claim
    batch touched. [~verify] is forwarded to
    {!Pass.run_worklist}: it runs after each rule firing and blames the
    responsible rule via {!Pass.Verification_failed} — the
    `--verify-each-pass` mode. *)

val pp_report : Format.formatter -> report -> unit
