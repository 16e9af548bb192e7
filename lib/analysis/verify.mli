(** Structural CDFG verifier: every graph invariant as a diagnostic.

    {!Cdfg.Graph.validate} raises on the first violation — right for
    construction-time assertions, useless for reporting. This module
    re-states the same invariants (plus the mapping-phase legality rules)
    as checks that {e accumulate} {!Fpfa_diag.Diag.t} findings, so one run
    reports every problem and each finding carries a stable rule id.

    Two rule groups, because they hold at different times:

    - {e structure} rules hold on every well-formed CDFG, including
      mid-simplification — safe for the pass engine's verify-each-pass
      hook;
    - {e mappability} rules (constant statespace offsets, named outputs
      stored) only hold after full simplification; raw graphs violate them
      legitimately.

    Structure rule ids: ["cdfg.arity"], ["cdfg.dangling-ref"],
    ["cdfg.port-type"], ["cdfg.token-region"], ["cdfg.region-undeclared"],
    ["cdfg.region-duplicate-ss"], ["cdfg.output-invalid"], ["cdfg.cycle"],
    ["cdfg.index-divergence"]. Mappability rule ids are those of
    {!Mapping.Legalize.check_diags}. *)

val node : Cdfg.Graph.t -> Cdfg.Graph.node -> Fpfa_diag.Diag.t list
(** The purely local structure checks of one node (arity, dangling data /
    order references, port value/token typing, token region matching,
    region declared). O(degree); no whole-graph invariants. *)

val structure : Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** {!node} over every node, plus the whole-graph structure invariants:
    at most one [Ss_in]/[Ss_out] per region, named outputs resolve to
    value nodes, the incremental use/def index matches a recomputation
    ({!Cdfg.Graph.index_errors}), and acyclicity (skipped, as meaningless,
    while dangling references are present). *)

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

val all : ?facts:Addr.t -> Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** [structure] followed by [mappability] and — when [structure] found no
    errors — {!statespace}, sorted with {!Fpfa_diag.Diag.sort}. [facts]
    is forwarded to {!statespace}. *)

val local : Cdfg.Graph.t -> Cdfg.Graph.Id_set.t -> Fpfa_diag.Diag.t list
(** {!node} on the still-live members of a touched set, plus validity of
    any named output anchored in the set. O(set size x degree) — the
    incremental core of the verify-each-pass hook. Whole-graph invariants
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
