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
    {e inputs}, handled by phase 3 as register moves and immediates. *)

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

type t = {
  graph : Cdfg.Graph.t;
  clusters : cluster array;
  edges : edge list;
  cluster_of : (Cdfg.Graph.id, int) Hashtbl.t;
      (** op/St/Del node -> cluster id *)
}

exception Clustering_error of string

val run : ?caps:Fpfa_arch.Arch.alu_caps -> Cdfg.Graph.t -> t
(** Datapath-template clustering (greedy, deterministic). [caps] defaults
    to {!Fpfa_arch.Arch.paper_alu}. The graph must pass
    {!Legalize.check}. *)

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

val validate : t -> Fpfa_arch.Arch.alu_caps -> unit
(** Checks every cluster against the data-path constraints and the edge
    relation for acyclicity (weight-1 cycles are errors; a weight-0 cycle
    is also rejected). @raise Clustering_error *)

val pp_cluster : Cdfg.Graph.t -> Format.formatter -> cluster -> unit

val to_dot : t -> string
(** Graphviz view of the cluster DAG: one node per cluster (operations and
    write-backs in the label), solid edges for weight-1 dependences and
    dashed for weight-0 anti-dependences. *)
