(** Memory-order disambiguation: prune anti-dependence order edges that an
    address oracle proves unnecessary.

    {!Cdfg.Builder.advance_token} is maximally conservative — every new
    writer (St/Del) of a region is ordered after {e all} pending fetches
    of the previous token version, even when the addresses can provably
    never collide. Those false anti-dependences inflate the critical path
    that clustering and list scheduling must respect (paper Sec. 4). This
    pass recomputes, per fetch, the minimal set of writers the fetch must
    precede and edits the order edges to match:

    - an edge to a provably-{!Disjoint} writer is deleted; when a writer
      farther down the token chain may still alias the fetch, the deleted
      edge is {e retargeted} to the first such writer (that constraint was
      previously implied transitively through the deleted edge);
    - an edge already implied by a pure data path from fetch to writer
      (e.g. a guarded store whose mux reads the fetch) is dead and
      deleted;
    - [Must_alias] and [May_alias] edges are kept.

    The address oracle is a parameter — {!Fpfa_analysis.Addr.oracle}
    builds the real one; this module stays independent of the analysis
    library. Edits touch only order edges, so {!Cdfg.Eval} semantics are
    untouched by construction; soundness of the schedule-facing edits is
    replayed by the [cdfg.statespace-order] verifier rule under
    [verify_each] (see {!Fpfa_analysis.Verify.statespace}). *)

type relation =
  | Disjoint  (** the two accesses can never touch the same cell *)
  | Must_alias  (** provably the same address on every execution *)
  | May_alias  (** unknown — treat as aliasing *)

type oracle = Cdfg.Graph.id -> Cdfg.Graph.id -> relation
(** [oracle f w] relates the addresses of two statespace access nodes
    (Fe/St/Del) of the same region. Must be sound: [Disjoint] and
    [Must_alias] only when provable. *)

type report = {
  fetches : int;  (** fetches examined *)
  order_edges_before : int;  (** all order edges in the graph, before *)
  order_edges_after : int;
  removed : int;  (** anti-dependence edges deleted *)
  retargeted : int;  (** edges added to a farther aliasing writer *)
  kept_alias : int;  (** edges kept because the addresses must collide *)
  kept_unknown : int;  (** edges kept because the oracle cannot decide *)
}

val empty_report : report
val merge_report : report -> report -> report

type writer_index
(** Token version -> consuming writers, precomputed once with
    {!writer_index}. The walk in {!needed_writers} resolves each
    token-chain step through it; callers examining many fetches should
    build one and pass it to every call, or each call pays a full graph
    sweep. *)

val writer_index : Cdfg.Graph.t -> writer_index

val needed_writers :
  ?index:writer_index ->
  oracle:oracle ->
  Cdfg.Graph.t ->
  Cdfg.Graph.id ->
  (Cdfg.Graph.id * relation) list
(** The writers the given fetch must stay ordered before: the first
    possibly-aliasing writer on each branch of the token chain downstream
    of the fetch's own token version (provably disjoint writers are
    stepped over). Also the checking core of
    {!Fpfa_analysis.Verify.statespace}. [index] defaults to a fresh
    {!writer_index} of the graph. *)

val prune : ?verify:Pass.verify_hook -> oracle:oracle -> Cdfg.Graph.t -> report
(** One full pruning pass; idempotent (a second run with the same oracle
    changes nothing). [~verify] runs once after the batch of edits with
    rule name ["disambig"] and the touched node set; a hook exception is
    re-raised as {!Pass.Verification_failed}. *)

val order_edge_count : Cdfg.Graph.t -> int
(** Total order edges in the graph (the [--stats] before/after metric). *)

val pp_report : Format.formatter -> report -> unit
