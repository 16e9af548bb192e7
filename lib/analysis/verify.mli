(** CDFG verifier: the graph's legality rules as diagnostics.

    Each rule set has one implementation, which returns every finding as
    a {!Fpfa_diag.Diag.t} with a stable rule id; the flow's raising
    checks read the same code and raise its first finding. This module
    is the reporting side: one run reports every problem, so
    [fpfa_map check], {!Fpfa_core.Flow.audit} and the verify-each-pass
    hook see them all.

    Three rule groups, because they hold at different times:

    - {e structure} rules ({!Cdfg.Graph.check_diags}, whose first finding
      {!Cdfg.Graph.validate} raises, plus the use/def index check this
      module adds) hold on every well-formed CDFG, including
      mid-simplification — safe for the pass engine's verify-each-pass
      hook;
    - {e mappability} rules ({!Mapping.Legalize.check_diags}, raised by
      {!Mapping.Legalize.check}: constant statespace offsets, named
      outputs stored) only hold after full simplification; raw graphs
      violate them legitimately;
    - {e statespace order} ({!statespace}) replays the anti-dependences
      against the address analysis on a settled graph.

    Structure rule ids: ["cdfg.dangling-ref"], ["cdfg.port-type"],
    ["cdfg.token-region"], ["cdfg.region-undeclared"],
    ["cdfg.region-duplicate-ss"], ["cdfg.output-invalid"], ["cdfg.cycle"],
    ["cdfg.index-divergence"]. *)

val structure : Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** {!Cdfg.Graph.check_diags}: every structure finding of the graph,
    plus ["cdfg.index-divergence"] for each divergence of the use/def
    index from a recomputation ({!Cdfg.Graph.index_errors}). The flow's
    raising check, {!Cdfg.Graph.validate}, leaves the index out: it is
    [Graph]'s bookkeeping, which the graph-model tests replay against a
    naive model. *)

val mappability : Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** {!Mapping.Legalize.check_diags}: constant non-negative statespace
    offsets, every named output stored to a region. *)

val statespace : ?facts:Addr.t -> Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** Replays statespace-order legality against the address analysis: for
    every fetch, each possibly-aliasing writer downstream of the fetch's
    token version ({!Transform.Disambig.needed_writers} under the
    {!Addr.oracle}) must be reachable from the fetch through data or
    order edges — otherwise an ["cdfg.statespace-order"] error blames the
    fetch. This is the audit that catches an illegally missing
    anti-dependence edge.
    Requires a structurally sound, acyclic graph; [facts] defaults to a
    fresh {!Addr.analyze}. Sound on settled graphs (after simplification
    has collected forwarded fetches), which is when anti-dependences are
    meaningful. *)

val local : Cdfg.Graph.t -> Cdfg.Graph.Id_set.t -> Fpfa_diag.Diag.t list
(** {!Cdfg.Graph.check_local_diags}: the per-node structure rules on the
    still-live members of a touched set, plus validity of any named
    output anchored in the set. O(set size x degree) — the incremental
    core of the verify-each-pass hook. Whole-graph invariants
    (acyclicity, duplicate [Ss_in], index consistency) are deliberately
    not re-checked here; run {!structure} once after the engine returns
    for those. *)

val pass_hook : ?full:bool -> unit -> Transform.Pass.verify_hook
(** A hook for {!Transform.Pass.run_worklist}[ ~verify]: after each rule
    firing it checks the touched nodes with {!local} ([~full:true]
    substitutes {!structure} on the whole graph — exhaustive and slow, for
    debugging) and raises {!Fpfa_diag.Diag.Failed} with every
    error-severity finding, which the engine re-raises as
    {!Transform.Pass.Verification_failed} blaming the rule that fired. *)

val bits :
  ?width:int ->
  ?input_ranges:(string * Fpfa_util.Interval.t) list ->
  Cdfg.Graph.t ->
  Transform.Bitopt.claim list ->
  unit
(** Independent replay of a {!Transform.Bitopt} claim batch: recomputes
    the {!Transform.Absdom} facts of the (pre-apply) graph from scratch
    and re-derives every claim with {!Transform.Bitopt.check_claim}. A
    claim that cannot be re-derived raises
    {!Transform.Pass.Verification_failed} blaming rule ["bitopt"], with
    a ["bits.unproven-rewrite"] diagnostic anchored at the claimed node
    — a refuse-the-batch protocol. Pass the hook to
    {!Transform.Bitopt.apply}[ ~verify], which runs it before any
    mutation. *)
