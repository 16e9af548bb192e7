(** The output of resource allocation: "the job of an FPFA tile for each
    clock cycle" (paper Fig. 5).

    A job is a cycle-indexed program for the whole tile: register moves
    issued over the crossbar, ALU configurations with their operand
    sources, memory write-backs and deletes. A job is also untrusted data
    (a decoded configuration image may hold anything): the allocation
    rules every job must keep are stated once, in the {!Fpfa_sim}
    simulator's walk, whose [run] raises the first broken one and whose
    [check_diags] reports them all. *)

type reg = { pp : int; bank : int; index : int }
type mem_loc = { mpp : int; mem : int; addr : int }

type arg =
  | Port of int  (** ALU input port (register bank or immediate) *)
  | Node of Cdfg.Graph.id  (** result of an earlier micro-op in the bundle *)

type action = Bin of Cdfg.Op.binop | Un of Cdfg.Op.unop | Mux3 | Pass

type micro = { node : Cdfg.Graph.id; action : action; args : arg list }

type write = {
  target : mem_loc;
  wcycle : int;  (** cycle at which the word is committed *)
  source_store : Cdfg.Graph.id option;
      (** the [St] node this write realises; [None] for scratch spills *)
}

type alu_work = {
  wcluster : int;
  wpp : int;
  port_regs : (int * reg) list;  (** port -> register operand *)
  port_imms : (int * int) list;  (** port -> immediate operand *)
  micros : micro list;  (** topological order; the last one is the root *)
  writes : write list;  (** memory write-backs of the root value *)
  reg_dests : (int * reg) list;
      (** (cycle, register) direct forwards of the root value *)
}

type delete_work = { dcluster : int; dloc : mem_loc; dcycle : int }

type move = {
  src : mem_loc;
  dst : reg;
  carried : Cdfg.Graph.id;  (** CDFG value node the word represents *)
  for_cluster : int;
}

type copy = {
  csrc : mem_loc;
  cdst : mem_loc;
  kept : Cdfg.Graph.id;  (** the fetch whose value the copy preserves *)
}
(** Memory-to-memory preservation: the source word is about to be
    overwritten while later levels still fetch its old value, so it is
    copied to a scratch cell first (read at cycle start, committed at cycle
    end, one crossbar lane). *)

type cycle = {
  moves : move list;
  copies : copy list;
  alu : alu_work list;  (** at most one per PP *)
  deletes : delete_work list;
}

type t = {
  tile : Fpfa_arch.Arch.tile;
  graph : Cdfg.Graph.t;
  cycles : cycle array;
  region_homes : (string * mem_loc list) list;
      (** base address of each region's slices, sorted by name. One slice =
          contiguous storage; K slices = the region is interleaved, cell
          [i] living at slice [i mod K], address [base + i / K] *)
  region_sizes : (string * int) list;
      (** words reserved per region (declared size or highest static offset
          + 1), sorted by name *)
  exec_cycle_of_level : int array;
}

val cycle_count : t -> int

val home_of : t -> string -> mem_loc list
(** The region's slice bases. @raise Not_found for an unknown region. *)

val cell_of : t -> string -> int -> mem_loc
(** Concrete location of cell [offset] under the region's interleaving. *)

val interleaved_cell : mem_loc list -> int -> mem_loc
(** The addressing formula itself: cell [i] of a K-slice region lives in
    slice [i mod K] at address [base + i / K]. *)

val size_of : t -> string -> int

val pp_reg : Format.formatter -> reg -> unit
val pp_mem_loc : Format.formatter -> mem_loc -> unit
val pp_cycle : Cdfg.Graph.t -> Format.formatter -> cycle -> unit
val pp : Format.formatter -> t -> unit
(** Full per-cycle job listing. *)

val pp_gantt : Format.formatter -> t -> unit
(** Compact timeline: one row per PP showing which cluster fires each
    cycle, plus rows for crossbar moves and memory write-backs. *)
