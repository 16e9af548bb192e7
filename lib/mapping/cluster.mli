(** Phase 1 — task clustering and ALU data-path mapping (paper VI-A).

    The task graph is partitioned into {e clusters}, each executable by one
    FPFA ALU in one clock cycle: a connected subgraph of value operations
    with a single externally visible result, at most
    {!Fpfa_arch.Arch.alu_caps.max_inputs} distinct operands, bounded depth,
    and a bounded number of multiplier-class operations. Store nodes attach
    to the cluster producing their value (the cluster's write-back); a
    store of a constant or of a fetched value becomes a pass-through
    cluster (the ALU forwards one operand unchanged). Delete nodes become
    memory-only clusters.

    Fetch ([Fe]) and constant nodes are not clustered: they are cluster
    {e inputs}, handled by phase 3 as register moves and immediates.

    The legality rules of a clustering are stated once, in
    {!check_diags}; {!validate} raises its first finding. *)

type cluster = {
  cid : int;
  ops : Cdfg.Graph.id list;
      (** value operations, topologically ordered; empty for pass-through
          and memory-only clusters *)
  root : Cdfg.Graph.id option;
      (** node producing the cluster's result (a member op, or the
          forwarded source for a pass-through); [None] for delete-only *)
  stores : Cdfg.Graph.id list;  (** [St] nodes written back by this cluster *)
  deletes : Cdfg.Graph.id list;  (** [Del] nodes executed by this cluster *)
  cinputs : Cdfg.Graph.id list;
      (** distinct external operands in port order (constants included) *)
}

type edge = { src : int; dst : int; weight : int }
(** [dst] must be scheduled at least [weight] levels after [src]; weight 0
    allows sharing a level (anti-dependences). *)

type t = private {
  graph : Cdfg.Graph.t;
  clusters : cluster array;
  edges : edge list;
  cluster_of : int array;
      (** node id -> id of the cluster listing it as an op, [St] or [Del];
          [-1] for every other node. Dense over
          {!Cdfg.Graph.id_bound} of [graph] when the clustering was built. *)
  versions : Legalize.versions;
      (** the statespace versions of [graph], with the largest offset
          accessed per region and the fetches each [St]/[Del] destroys *)
  root_external : bool array;
      (** cid -> whether the cluster's root has a consumer outside the
          cluster, so phase 3 must spill the result to a scratch word *)
  micros : (Job.micro list, string) result array;
      (** cid -> the micro-ops its ALU bundle runs, in [ops] order (a
          pass-through forwards its root; a delete-only cluster runs
          none), or the {!Alloc.Allocation_error} text of a cluster no
          ALU can run. Every job allocated from the clustering shares
          these lists. *)
  port_imms : (int * int) list array;
      (** cid -> (port, value) of each constant operand *)
  region_touches : int list array;
      (** cid -> the regions its stores, deletes and fetched operands
          touch, in that order, as positions in
          {!Cdfg.Graph.regions}[ graph] (phase 3 homes a region at the
          first cluster that touches it) *)
}
(** A clustering and the facts phase 3 reads of it. Every field is
    complete when the value is built ({!make}, or any partitioner below)
    and read-only afterwards: the rewinds of one checkpoint allocate the
    same clustering at many tile points, on several domains. *)

exception Clustering_error of string

val make : Cdfg.Graph.t -> cluster array -> edge list -> t
(** A clustering from given clusters and edges (the paper's worked
    examples): runs {!Legalize.check} and {!Legalize.versions} on the
    graph and derives the facts above, as every partitioner does. A
    malformed cluster is accepted here; allocating it raises.
    @raise Legalize.Unmappable *)

val run : ?caps:Fpfa_arch.Arch.alu_caps -> Cdfg.Graph.t -> t
(** Datapath-template clustering (greedy, deterministic). [caps] defaults
    to {!Fpfa_arch.Arch.paper_alu}.
    @raise Legalize.Unmappable when the graph fails {!Legalize.check}. *)

val sarkar : ?caps:Fpfa_arch.Arch.alu_caps -> Cdfg.Graph.t -> t
(** Sarkar-style edge-zeroing clustering (the paper's reference [4]): unit
    clusters merged along data edges in topological edge order whenever the
    fused cluster still fits the ALU data path. In the one-cycle-per-cluster
    model a legal merge never lengthens the critical path, so the
    completion-time guard of the original algorithm reduces to the
    data-path check. *)

val unit_clusters : Cdfg.Graph.t -> t
(** Baseline: every operation is its own cluster (Sarkar's two-phase
    starting point without data-path fusion). *)

val inputs_of : cluster -> Cdfg.Graph.id list
(** [cluster.cinputs]. *)

(** {2 Legality}

    One checker states every clustering rule: {!validate} raises its
    first finding, [fpfa_map check] and {!Fpfa_core.Flow.audit} report
    them all. *)

val check_diags : t -> Fpfa_arch.Arch.alu_caps -> Fpfa_diag.Diag.t list
(** Every violation of the clustering rules against the ALU data path
    [caps], in cluster order and then graph order, each anchored to the
    cluster id (a coverage finding about a node, to the node id). Empty
    when the clustering is legal. Rule ids:

    - ["cluster.datapath"]: more distinct operands than [max_inputs]
      (the larger of the recorded [cinputs] and a recount from the member
      ops), more fused ops than [max_ops], more multiplier-class ops than
      [max_multipliers], or an op chain deeper than [max_depth];
    - ["cluster.empty"]: a cluster with no ops, root or deletes;
    - ["cluster.coverage"]: a member op or root that is no live node, a
      root that is neither a member op nor a pass-through source, a
      clusterable node ([Binop]/[Unop]/[Mux]/[St]/[Del]) missing from
      [cluster_of], a [cluster_of] entry the named cluster does not list,
      or an edge naming a cluster out of range;
    - ["cluster.cycle"]: the dependence relation has a directed cycle of
      any weight (a weight-0 cycle would need two clusters of one level
      to precede each other). *)

val validate : t -> Fpfa_arch.Arch.alu_caps -> unit
(** {!check_diags}, raising the first finding.
    @raise Clustering_error with its message. *)

val pp_cluster : Cdfg.Graph.t -> Format.formatter -> cluster -> unit

val to_dot : t -> string
(** Graphviz view of the cluster DAG: one node per cluster (operations and
    write-backs in the label), solid edges for weight-1 dependences and
    dashed for weight-0 anti-dependences. *)
