(** Dataflow-driven lints: findings that are legal CDFG but almost
    certainly not what the programmer meant.

    Warning rule ids: ["lint.dead-node"], ["lint.dead-store"],
    ["lint.fetch-uninit"], ["addr.out-of-region"]. Info rule ids:
    ["lint.suppressed"], ["addr.overlap-unknown"] — a graph with lint
    findings still maps and simulates correctly.

    The store/fetch lints are clients of the {!Dataflow} framework,
    sharpened by the {!Addr} address analysis: a dynamic offset with a
    bounded interval confines the access to its band of cells instead of
    defeating cell-precise reasoning for the whole region. Datapath-width
    overflow is {!Bits}' ["bits.widening-overflow"]. *)

val liveness : Cdfg.Graph.t -> Cdfg.Graph.id -> bool
(** Backward boolean analysis over data edges: a node is live when it is
    an effect root ([St]/[Del]/[Ss_out]), a named output, or feeds a live
    consumer. Exposed for tests; {!run} consumes it for
    ["lint.dead-node"]. *)

val reaching_stores :
  Cdfg.Graph.t -> Cdfg.Graph.id -> Cdfg.Graph.Id_set.t
(** Forward per-cell analysis: [reaching_stores g id] is the set of [St]
    nodes whose written value may still occupy the cell read by fetch
    [id] (empty for non-fetch nodes or dynamic offsets). A
    constant-offset store strongly kills earlier stores to the same cell;
    paths join by union. Feeds ["lint.fetch-uninit"] and
    ["lint.dead-store"]; {!run} itself uses an {!Addr}-sharpened variant
    in which a bounded dynamic store weakly updates its band of cells. *)

val run :
  ?width:int -> ?facts:Addr.t -> Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** Every lint over the graph ([facts] defaults to a fresh
    {!Addr.analyze} at [width], default 16; pass it to share one analysis
    across verifier, lints and reporting):

    - ["lint.dead-node"]: a value-producing node no named output or
      statespace effect transitively depends on (what DCE would remove);
    - ["lint.dead-store"]: a store whose cell is overwritten on every
      path before any fetch reads it, and which does not survive into the
      region's final contents;
    - ["lint.fetch-uninit"]: a fetch from a {e declared} (non-implicit)
      region cell — or, for a bounded dynamic offset, band of cells —
      that no store has written on any path;
    - ["lint.suppressed"] (info): stores (resp. fetches) whose dynamic
      offsets the address analysis cannot bound disabled fetch-uninit
      (resp. dead-store) checking for their region — one diagnostic per
      suppressed region carrying the {e count} of suppressing accesses
      (and anchored to the first), so [check --json] can total the
      suppression it would otherwise hide;
    - ["addr.out-of-region"]: an access whose offset interval is finite,
      strictly narrower than the signed [width]-bit range, and still escapes
      the region's declared size (implicit and unsized regions exempt);
    - ["addr.overlap-unknown"] (info): per-region count of fetch/writer
      pairs the address analysis keeps conservatively ordered because it
      can neither prove aliasing nor disjointness.

    The graph must be structurally valid and acyclic (run
    {!Verify.structure} first). *)
