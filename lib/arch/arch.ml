type alu_caps = {
  max_inputs : int;
  max_depth : int;
  max_multipliers : int;
  max_ops : int;
}

type tile = {
  alu_count : int;
  banks_per_pp : int;
  regs_per_bank : int;
  memories_per_pp : int;
  memory_size : int;
  buses : int;
  move_window : int;
  alu : alu_caps;
}

let paper_alu = { max_inputs = 4; max_depth = 2; max_multipliers = 1; max_ops = 3 }

let unit_alu = { max_inputs = 4; max_depth = 1; max_multipliers = 1; max_ops = 1 }

let paper_tile =
  {
    alu_count = 5;
    banks_per_pp = 4;
    regs_per_bank = 4;
    memories_per_pp = 2;
    memory_size = 512;
    buses = 10;
    move_window = 4;
    alu = paper_alu;
  }

let peak_alu_ops t = t.alu_count * t.alu.max_ops
let memory_ports t = t.alu_count * t.memories_per_pp

let with_alu alu tile = { tile with alu }
let with_alu_count alu_count tile = { tile with alu_count }
let with_buses buses tile = { tile with buses }
let with_move_window move_window tile = { tile with move_window }

(* The configuration image writes every count, register coordinate and
   memory coordinate as one byte, and a word address as two: a tile it
   cannot describe is not a tile. *)
let max_field = 0xFF
let max_memory_size = 0x10000

let validate t =
  let at_most hi name v =
    if v > hi then
      invalid_arg (Printf.sprintf "tile: %s must be at most %d" name hi)
  in
  let positive ?(hi = max_field) name v =
    if v <= 0 then invalid_arg (Printf.sprintf "tile: %s must be positive" name);
    at_most hi name v
  in
  positive "alu_count" t.alu_count;
  positive "banks_per_pp" t.banks_per_pp;
  positive "regs_per_bank" t.regs_per_bank;
  positive "memories_per_pp" t.memories_per_pp;
  positive ~hi:max_memory_size "memory_size" t.memory_size;
  positive "buses" t.buses;
  positive "move_window" t.move_window;
  positive "alu.max_inputs" t.alu.max_inputs;
  positive "alu.max_depth" t.alu.max_depth;
  positive "alu.max_ops" t.alu.max_ops;
  if t.alu.max_multipliers < 0 then
    invalid_arg "tile: alu.max_multipliers must be non-negative";
  at_most max_field "alu.max_multipliers" t.alu.max_multipliers;
  if t.alu.max_inputs > t.banks_per_pp then
    invalid_arg "tile: more ALU inputs than register banks"

let pp_tile fmt t =
  Format.fprintf fmt
    "tile: %d PPs, %dx%d regs, %dx%d words, %d buses, window %d, ALU \
     (in=%d depth=%d mul=%d ops=%d)"
    t.alu_count t.banks_per_pp t.regs_per_bank t.memories_per_pp t.memory_size
    t.buses t.move_window t.alu.max_inputs t.alu.max_depth
    t.alu.max_multipliers t.alu.max_ops
