(** Phase 3 — heuristic resource allocation (paper VI-C, Fig. 5).

    Levels are allocated in order. For each level:
    - every cluster's ALU executes at the level's clock cycle; its result is
      written back over the crossbar to the statespace cells of its stores
      and, when other clusters consume the value, to a scratch word in its
      PP's local memory ("for each output do store it to a memory");
    - every register operand is moved from memory into the consumer's input
      register bank at the clock cycle [move_window] steps before the
      execute cycle, falling back to window-1, ..., 1 steps before ("try to
      move it to the proper register at the clock cycle which is four steps
      before; if failed, three; two; one");
    - when some operand cannot be moved (bus, memory-port or register-bank
      conflicts, or the value is not yet in memory), clock cycles are
      inserted before the level until all operands fit ("insert one or more
      clock cycles before the current one to load inputs").

    Resource model enforced per clock cycle: [tile.buses] crossbar
    transfers; one read and one write port per memory; [regs_per_bank]
    registers per bank, operands occupying their register from the move
    cycle through the execute cycle; write-backs that find the target
    memory's write port busy are deferred to the next free cycle (cell
    write order is preserved).

    The allocation is linear in the number of clusters (paper VI-C): a
    level is attempted at most 200 times, an operand tries at most
    [move_window] + 128 candidate cycles, and each candidate is checked
    against per-cycle resource tables in O([regs_per_bank]) time. What
    depends only on the graph and its clustering (statespace versions,
    region extents, the fetches each store or delete destroys, the node
    to cluster index, which roots are read outside their cluster, each
    ALU bundle's micro-ops and immediates) comes with the {!Cluster.t},
    so a run scans no graph and builds no per-graph table; its own state
    is dense arrays over accesses, cluster ids and memory slots. A level
    attempt that fails allocates nothing: its undo log and planned moves
    are int stacks in that state, and job records are made only when a
    level commits. *)

type options = {
  locality : bool;
      (** place a region in the memory of the PP that first stores to
          (else first reads) it; [false] scatters regions round-robin
          (ablation for the paper's "locality of reference" claim) *)
  forwarding : bool;
      (** extension: also write results straight into a consumer's input
          register at the producer's cycle when the consumer executes
          within the move window, skipping the memory round-trip *)
  interleave : bool;
      (** extension: split arrays of 4+ words across the PP's two memories
          (cell [i] -> memory [i mod 2], address [i/2]), doubling the read
          bandwidth of hot arrays at no port cost *)
}

val default_options : options
(** [locality = true; forwarding = false; interleave = false] — the
    paper's algorithm. *)

exception Allocation_error of string

val run : ?options:options -> tile:Fpfa_arch.Arch.tile -> Sched.t -> Job.t
(** Allocates a scheduled clustering onto the tile.
    The clustering's graph passed {!Legalize.check} when the clustering
    was built.
    @raise Allocation_error when a region does not fit in any memory or a
    conflict cannot be resolved within the search bounds. *)
