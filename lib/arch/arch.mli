(** Description of an FPFA processor tile (paper Section II, Fig. 1).

    One tile holds [alu_count] identical Processing Parts sharing a control
    unit. Each PP has one ALU with [alu.max_inputs] read ports fed by as
    many register banks ([Ra]–[Rd], [regs_per_bank] registers each) and
    [memories_per_pp] local memories of [memory_size] words. A crossbar of
    [buses] lanes routes any ALU result or memory word to any register bank
    or memory in the tile, one word per lane per clock cycle. *)

type alu_caps = {
  max_inputs : int;  (** distinct external operands per cycle (4: Ra–Rd) *)
  max_depth : int;  (** chained operation levels per cycle *)
  max_multipliers : int;  (** multiplier-class ops (mul/div/mod) per cycle *)
  max_ops : int;  (** total primitive operations fused into one cycle *)
}

type tile = {
  alu_count : int;
  banks_per_pp : int;
  regs_per_bank : int;
  memories_per_pp : int;
  memory_size : int;
  buses : int;  (** crossbar transfers per clock cycle *)
  move_window : int;  (** how many cycles early an input may be loaded *)
  alu : alu_caps;
}

val paper_alu : alu_caps
(** The FPFA ALU data path: 4 inputs, two levels (multiply feeding
    add/subtract), at most one multiplier-class operation, 3 fused ops. *)

val unit_alu : alu_caps
(** One primitive operation per cycle — the Sarkar-baseline data path. *)

val paper_tile : tile
(** The tile of paper Fig. 1: 5 PPs, 4 banks of 4 registers, 2 memories of
    512 words, 10 crossbar lanes, move window of 4 (paper Fig. 5 tries
    4, 3, 2, 1 steps before). *)

val peak_alu_ops : tile -> int
(** Primitive operations the tile can issue per cycle,
    [alu_count * alu.max_ops] — the ALU term of a modulo-scheduling
    resource bound (ResMII). *)

val memory_ports : tile -> int
(** Memory accesses the tile can issue per cycle: each PP's local memories
    have one port each, so [alu_count * memories_per_pp]. The memory term
    of ResMII. *)

val with_alu : alu_caps -> tile -> tile
val with_alu_count : int -> tile -> tile
val with_buses : int -> tile -> tile
val with_move_window : int -> tile -> tile

val validate : tile -> unit
(** @raise Invalid_argument when a count is non-positive (the multiplier
    count negative), when the ALU takes more inputs than there are
    register banks, or when a field exceeds what the configuration image
    can hold: it writes every count and coordinate as one byte and a
    word address as two, so each count is at most 255 and [memory_size]
    at most 65,536 words. *)

val pp_tile : Format.formatter -> tile -> unit
