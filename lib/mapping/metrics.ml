type t = {
  cycles : int;
  exec_cycles : int;
  inserted_cycles : int;
  levels : int;
  alu_ops : int;
  mul_ops : int;
  alu_firings : int;
  moves : int;
  forwards : int;
  mem_reads : int;
  mem_writes : int;
  deletes : int;
  bus_transfers : int;
  local_transfers : int;
  alu_utilisation : float;
  locality : float;
  energy : float;
}

(* Arbitrary but documented energy weights (units: relative to one ALU
   operation): transfers across the tile-wide crossbar and memory accesses
   dominate, local traffic is cheap. *)
let w_alu = 1.0
let w_local = 1.0
let w_global = 4.0
let w_read = 2.0
let w_write = 2.0

let energy_weights =
  [
    ("alu_op", w_alu);
    ("local_transfer", w_local);
    ("global_transfer", w_global);
    ("mem_read", w_read);
    ("mem_write", w_write);
  ]

(* The job's tallies, gathered in one pass over its cycles. *)
type tally = {
  mutable exec_cycles : int;
  mutable alu_firings : int;
  mutable alu_ops : int;
  mutable mul_ops : int;
  mutable moves : int;
  mutable local_moves : int;
  mutable copies : int;
  mutable writes : int;
  mutable local_writes : int;
  mutable forwards : int;
  mutable local_forwards : int;
  mutable deletes : int;
}

let rec count_micros t = function
  | [] -> ()
  | (m : Job.micro) :: rest ->
    (match m.Job.action with
    | Job.Pass -> ()
    | Job.Bin op ->
      t.alu_ops <- t.alu_ops + 1;
      if Cdfg.Op.is_multiplier_class op then t.mul_ops <- t.mul_ops + 1
    | Job.Un _ | Job.Mux3 -> t.alu_ops <- t.alu_ops + 1);
    count_micros t rest

let rec count_writes t pp = function
  | [] -> ()
  | (wr : Job.write) :: rest ->
    t.writes <- t.writes + 1;
    if wr.Job.target.Job.mpp = pp then t.local_writes <- t.local_writes + 1;
    count_writes t pp rest

let rec count_forwards t pp = function
  | [] -> ()
  | ((_ : int), (r : Job.reg)) :: rest ->
    t.forwards <- t.forwards + 1;
    if r.Job.pp = pp then t.local_forwards <- t.local_forwards + 1;
    count_forwards t pp rest

let rec count_works t = function
  | [] -> ()
  | (w : Job.alu_work) :: rest ->
    t.alu_firings <- t.alu_firings + 1;
    count_micros t w.Job.micros;
    count_writes t w.Job.wpp w.Job.writes;
    count_forwards t w.Job.wpp w.Job.reg_dests;
    count_works t rest

let rec count_moves t = function
  | [] -> ()
  | (m : Job.move) :: rest ->
    t.moves <- t.moves + 1;
    if m.Job.src.Job.mpp = m.Job.dst.Job.pp then t.local_moves <- t.local_moves + 1;
    count_moves t rest

let count_cycle t (c : Job.cycle) =
  (match c.Job.alu with [] -> () | _ :: _ -> t.exec_cycles <- t.exec_cycles + 1);
  count_works t c.Job.alu;
  count_moves t c.Job.moves;
  t.copies <- t.copies + List.length c.Job.copies;
  t.deletes <- t.deletes + List.length c.Job.deletes

let of_job (job : Job.t) =
  let t =
    {
      exec_cycles = 0;
      alu_firings = 0;
      alu_ops = 0;
      mul_ops = 0;
      moves = 0;
      local_moves = 0;
      copies = 0;
      writes = 0;
      local_writes = 0;
      forwards = 0;
      local_forwards = 0;
      deletes = 0;
    }
  in
  Array.iter (count_cycle t) job.Job.cycles;
  let cycles = Job.cycle_count job in
  let moves = t.moves and forwards = t.forwards and alu_firings = t.alu_firings in
  let mem_reads = moves + t.copies in
  (* a preservation copy occupies one crossbar lane and one write port *)
  let mem_writes = t.writes + t.copies in
  let bus_transfers = moves + mem_writes + forwards in
  let local_transfers = t.local_moves + t.local_writes + t.local_forwards in
  let global_transfers = bus_transfers - local_transfers in
  let energy =
    (w_alu *. float_of_int t.alu_ops)
    +. (w_local *. float_of_int local_transfers)
    +. (w_global *. float_of_int global_transfers)
    +. (w_read *. float_of_int mem_reads)
    +. (w_write *. float_of_int (mem_writes + t.deletes))
  in
  {
    cycles;
    exec_cycles = t.exec_cycles;
    inserted_cycles = cycles - t.exec_cycles;
    levels = Array.length job.Job.exec_cycle_of_level;
    alu_ops = t.alu_ops;
    mul_ops = t.mul_ops;
    alu_firings;
    moves;
    forwards;
    mem_reads;
    mem_writes;
    deletes = t.deletes;
    bus_transfers;
    local_transfers;
    alu_utilisation =
      (if cycles = 0 then 0.0
       else
         float_of_int alu_firings
         /. float_of_int (cycles * job.Job.tile.Fpfa_arch.Arch.alu_count));
    locality =
      (if bus_transfers = 0 then 1.0
       else float_of_int local_transfers /. float_of_int bus_transfers);
    energy;
  }

let pp fmt m =
  Format.fprintf fmt
    "cycles=%d (exec=%d stall=%d) levels=%d ops=%d (mul=%d) firings=%d \
     moves=%d fwd=%d reads=%d writes=%d bus=%d util=%.2f locality=%.2f \
     energy=%.0f"
    m.cycles m.exec_cycles m.inserted_cycles m.levels m.alu_ops m.mul_ops
    m.alu_firings
    m.moves m.forwards m.mem_reads m.mem_writes m.bus_transfers
    m.alu_utilisation m.locality m.energy

let header =
  [
    "kernel"; "cycles"; "levels"; "ops"; "mul"; "moves"; "reads"; "writes";
    "util"; "locality"; "energy";
  ]

let row ~name m =
  [
    name;
    string_of_int m.cycles;
    string_of_int m.levels;
    string_of_int m.alu_ops;
    string_of_int m.mul_ops;
    string_of_int m.moves;
    string_of_int m.mem_reads;
    string_of_int m.mem_writes;
    Printf.sprintf "%.2f" m.alu_utilisation;
    Printf.sprintf "%.2f" m.locality;
    Printf.sprintf "%.0f" m.energy;
  ]
