(** Behaviour-preserving graph transformation framework (paper Section I:
    "minimized using a set of behaviour preserving transformations").

    Every transformation is a {!type-rule}: a rewrite of one node. The
    {e worklist engine} ({!run_worklist}) seeds a queue with all nodes in
    topological order and thereafter re-examines only the neighbourhood
    of each rewrite, which the graph reports through its mutation journal
    ({!Cdfg.Graph.drain_dirty}). Validation runs once at the end of the
    caller; a [~verify] hook checks the graph after every rule firing. *)

type verify_hook = string -> Cdfg.Graph.t -> Cdfg.Graph.Id_set.t -> unit
(** [hook rule g touched] checks the graph right after [rule] fired;
    [touched] is the set of node ids that firing dirtied (defs and lost
    uses, possibly referencing since-removed nodes — filter with
    {!Cdfg.Graph.mem}). Raise to reject the graph; the engine re-raises
    as {!Verification_failed} blaming [rule]. *)

exception Verification_failed of { rule : string; error : exn }
(** A [~verify] hook rejected the graph right after [rule] fired. *)

type rule = {
  rname : string;
  prepare : Cdfg.Graph.t -> Cdfg.Graph.id -> bool;
      (** [prepare g] is called once per engine run and may allocate
          per-run state (e.g. the CSE value-number table); the returned
          closure rewrites one node and reports whether it changed the
          graph. It is only ever called on ids that still exist. *)
  prepare_seeded : (Cdfg.Graph.t -> Cdfg.Graph.id -> bool) option;
      (** Used instead of [prepare] when the engine runs from a caller
          seed ({!run_worklist}[ ?seed]); the seeded caller is the
          cleanup of the certified bit-level stage ([Flow.bitopt_stage]).
          A seeded run visits only the dirty region, so a rule whose
          per-run state is normally filled in by visiting every node
          (CSE's value-number table) must pre-populate it here over the
          whole graph, or a node a bit-level rewrite just created could
          fail to merge with an unvisited old equal. [None] means
          [prepare] is seed-safe as is (purely local rules). *)
  settled : bool;
      (** Settled rules run only when the eager (non-settled) rules have
          quiesced, at which point dead code has been fully collected.
          Required for rules whose enabling condition reads use counts
          (e.g. chain rebalancing): on transient counts inflated by
          not-yet-collected dead nodes they oscillate with CSE/DCE. *)
}

val local : string -> (Cdfg.Graph.t -> Cdfg.Graph.id -> bool) -> rule
(** [local name rewrite] wraps a stateless per-node rewrite as a rule. *)

val settled : string -> (Cdfg.Graph.t -> Cdfg.Graph.id -> bool) -> rule
(** [settled name rewrite] is {!local} but deferred to eager quiescence
    (see {!type-rule}.settled). *)

type worklist_report = {
  steps : int;  (** node visits (a node can be revisited after a rewrite) *)
  rewrites : int;  (** rule applications that changed the graph *)
  peak_queue : int;  (** high-water mark of the pending queue *)
}

val run_worklist :
  ?max_steps:int ->
  ?seed:Cdfg.Graph.id list ->
  ?verify:verify_hook ->
  rule list ->
  Cdfg.Graph.t ->
  worklist_report
(** Node-level fixpoint: every node is visited at least once (in
    topological order); a rewrite re-enqueues only the affected
    neighbourhood — the rewritten nodes, their consumers (data and order),
    their producers, and producers that lost a use. Rules are applied in
    list order on each visit; settled rules run in a lower-priority tier
    drained only when the eager tier is empty. [~verify] runs after every
    individual rule firing with exactly the nodes that firing dirtied,
    enabling O(degree) incremental checks (or, for pinpointing an
    invariant-breaking rule, a whole-graph check). [max_steps] (default [100 + 100 * node_count] per
    tier in use) guards against diverging rule sets.

    [?seed] is the entry point of the certified bit-level stage's
    cleanup ([Flow.bitopt_stage]), which re-minimises only the nodes a
    verified claim batch touched: instead of every node, only the given
    ids are enqueued initially (still in topological order; ids no longer
    present are skipped), and rules switch to their [prepare_seeded]
    variant when they have one. The journal-driven propagation is
    unchanged, so the run still reaches everything a rewrite cascade
    touches — it just starts from the dirty region instead of the whole
    graph.
    @raise Failure when the step budget is hit.
    @raise Verification_failed when [~verify] rejects the graph. *)
