(** Allocation legality as diagnostics.

    Clustering and scheduling each state their rules once, in
    {!Mapping.Cluster.check_diags} and {!Mapping.Sched.check_diags}, whose
    first finding the flow raises. Allocation is different: its run-time
    twin is the simulator, which faults on the first broken resource
    constraint while a job runs. This checker accepts a job as untrusted
    data and reports {e every} violation statically, so [fpfa_map check]
    can audit a full mapping in one run and tests can corrupt a job and
    watch the specific rule fire. *)

val alloc : Mapping.Job.t -> Fpfa_diag.Diag.t list
(** Allocation legality: the per-cycle resource constraints the simulator
    faults on, checked statically over the whole job. Rule ids (anchored
    to the cycle index):

    - ["alloc.pp-conflict"]: two ALU bundles on one PP in a cycle, or a
      PP index out of range;
    - ["alloc.bus-capacity"]: moves + preservation copies + committing
      write-backs/deletes + register forwards exceed the crossbar lanes,
      or a forward scheduled at a different cycle than its bundle;
    - ["alloc.reg-bounds"]: a register reference outside the tile's
      bank/register geometry;
    - ["alloc.mem-bounds"]: a memory location outside the tile's
      memory geometry, or a region whose cells exceed its memory;
    - ["alloc.write-conflict"]: two writes racing on one cell, a memory
      write-port used twice in a cycle, or a register bank written twice
      in a cycle;
    - ["alloc.read-conflict"]: a memory read port used twice in a
      cycle. *)
