(** Cycle-accurate behavioural simulator of one FPFA tile.

    Executes a {!Mapping.Job.t} cycle by cycle: register moves read memory
    at the start of a cycle, ALUs evaluate their configured data paths from
    the input register banks, and write-backs/deletes commit to memory at
    the end of their cycle.

    The simulator is also where the allocation rules live, each stated
    once, in its per-cycle walk: the tile's hard limits (one ALU bundle
    per PP, crossbar lanes, one write port per register bank, one read and
    one write port per memory) and the shape of every access. The walk
    has two entry points. {!run} raises the first broken rule as {!Fault};
    {!check_diags} walks on and reports every one. No rule depends on the
    values a job computes, so the two agree on every job: {!run} faults
    exactly when {!check_diags} reports an error, with its first error's
    message. This makes the simulator an independent referee for the
    allocator.

    The final region contents must equal the CDFG evaluator's result on the
    same inputs; {!conforms} checks exactly that. *)

type trace = {
  cycles_run : int;
  max_bus_per_cycle : int;
  moves_executed : int;
  writes_executed : int;
}

(** One observable tile action with its concrete value — the tile's
    logic-analyser view, in execution order. The textual trace
    ([trace_out]) is a renderer over this stream ({!pp_event}), not a
    separate code path. Per-cycle spans come from the same walk, and the
    [sim.*] counters add up its events once a run completes. *)
type event =
  | Move of {
      cycle : int;
      src : Mapping.Job.mem_loc;
      dst : Mapping.Job.reg;
      value : int;
    }
  | Keep of {
      cycle : int;
      src : Mapping.Job.mem_loc;
      dst : Mapping.Job.mem_loc;
      value : int;
    }  (** preservation copy *)
  | Alu of { cycle : int; pp : int; cluster : int; value : int }
  | Writeback of { cycle : int; loc : Mapping.Job.mem_loc; value : int }
  | Delete of { cycle : int; loc : Mapping.Job.mem_loc }

val pp_event : Format.formatter -> event -> unit
(** One line per event, no trailing newline (e.g.
    ["@0 move M0.1[2] -> PP1.Ra[0] = 5"]). *)

exception Fault of string
(** The first broken allocation rule, with the message {!check_diags}
    gives it (read of a deleted word, two writes racing on one cell in
    one cycle, port or lane overflow...). *)

val run :
  ?memory_init:(string * int array) list ->
  ?trace_out:Format.formatter ->
  ?on_event:(event -> unit) ->
  Mapping.Job.t ->
  (string * int array) list * trace
(** Executes the job. Returns the final contents of every region (sorted by
    name, sized per the job's static region sizes) and an execution trace.
    [memory_init] seeds region contents exactly as in {!Cdfg.Eval.run}.
    [trace_out] renders every event as one text line; [on_event] receives
    the structured stream. Events are not materialised when neither is
    given.

    @raise Fault on the first broken allocation rule. *)

val check_diags : Mapping.Job.t -> Fpfa_diag.Diag.t list
(** Walks the job's cycles as {!run} does, on zero inputs, and returns
    every broken allocation rule in walk order, all errors. Per-cycle
    findings anchor to the cycle index; region layout and late
    write-backs carry no anchor. Rule ids:

    - ["alloc.pp-conflict"]: two ALU bundles on one PP in a cycle, or a
      PP index out of range;
    - ["alloc.bus-capacity"]: moves + preservation copies + committing
      write-backs/deletes + register forwards exceed the crossbar lanes,
      or a forward scheduled at another cycle than its bundle;
    - ["alloc.write-conflict"]: a register bank written twice in a cycle,
      two writes racing on one cell, a memory write port used twice in a
      cycle, or a write-back or delete committing in a cycle already
      simulated or past the end of the job;
    - ["alloc.read-conflict"]: a memory read port used twice in a cycle;
    - ["alloc.reg-bounds"]: a register outside the tile's bank/register
      geometry, whether a move, a forward or an ALU port names it (read
      or not);
    - ["alloc.mem-bounds"]: a memory location outside the tile's memory
      geometry: a move, copy, write-back or delete, a region's slice base
      or one of its cells, or a region with words and no slice;
    - ["alloc.deleted-read"]: a move or copy reading a deleted word;
    - ["alloc.bundle"]: a malformed ALU bundle: no micro-op, a micro-op of
      the wrong arity, an internal value no earlier micro-op computed, or
      a port with neither a register nor an immediate.

    Where a rule leaves no value (an out-of-range read, a malformed
    micro-op) the walk goes on with 0. *)

val conforms :
  ?memory_init:(string * int array) list -> Mapping.Job.t -> bool
(** Runs both the simulator and the CDFG evaluator on the same inputs and
    compares region contents (zero-padded to the static size). *)
