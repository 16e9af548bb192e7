module Arch = Fpfa_arch.Arch
module D = Fpfa_diag.Diag
module Job = Mapping.Job
module Obs = Fpfa_obs.Obs

type trace = {
  cycles_run : int;
  max_bus_per_cycle : int;
  moves_executed : int;
  writes_executed : int;
}

(* The logic-analyser view of the tile: one event per observable action.
   The textual trace (and any other consumer) renders this stream. *)
type event =
  | Move of { cycle : int; src : Job.mem_loc; dst : Job.reg; value : int }
  | Keep of { cycle : int; src : Job.mem_loc; dst : Job.mem_loc; value : int }
  | Alu of { cycle : int; pp : int; cluster : int; value : int }
  | Writeback of { cycle : int; loc : Job.mem_loc; value : int }
  | Delete of { cycle : int; loc : Job.mem_loc }

let pp_event fmt = function
  | Move e ->
    Format.fprintf fmt "@@%d move %a -> %a = %d" e.cycle Job.pp_mem_loc e.src
      Job.pp_reg e.dst e.value
  | Keep e ->
    Format.fprintf fmt "@@%d keep %a -> %a = %d" e.cycle Job.pp_mem_loc e.src
      Job.pp_mem_loc e.dst e.value
  | Alu e ->
    Format.fprintf fmt "@@%d alu PP%d Clu%d = %d" e.cycle e.pp e.cluster e.value
  | Writeback e ->
    Format.fprintf fmt "@@%d wb %a = %d" e.cycle Job.pp_mem_loc e.loc e.value
  | Delete e -> Format.fprintf fmt "@@%d del %a" e.cycle Job.pp_mem_loc e.loc

(* Simulator tallies for `--stats` (inert until Obs.enable); the test
   suite reconciles them against Mapping.Metrics of the same job. *)
let c_cycles = Obs.counter "sim.cycles"
let c_moves = Obs.counter "sim.moves"
let c_copies = Obs.counter "sim.copies"
let c_alu = Obs.counter "sim.alu_firings"
let c_writebacks = Obs.counter "sim.writebacks"
let c_deletes = Obs.counter "sim.deletes"
let c_bus_peak = Obs.counter "sim.bus.peak"

exception Fault of string

(* Registers and memory words live in flat arrays indexed by the tile's
   geometry ([reg_slot], [mem_slot]), so a bounds check compares against
   the geometry instead of loading nested arrays. *)
type machine = {
  pps : int;
  banks : int;
  regs_per_bank : int;
  memories : int;
  memory_size : int;
  regs : int array;
  words : int array;
  deleted : Bytes.t;  (* one byte per word, set while the word is deleted *)
}

let create_machine (tile : Arch.tile) =
  let words = tile.Arch.alu_count * tile.Arch.memories_per_pp * tile.Arch.memory_size in
  {
    pps = tile.Arch.alu_count;
    banks = tile.Arch.banks_per_pp;
    regs_per_bank = tile.Arch.regs_per_bank;
    memories = tile.Arch.memories_per_pp;
    memory_size = tile.Arch.memory_size;
    regs =
      Array.make
        (tile.Arch.alu_count * tile.Arch.banks_per_pp * tile.Arch.regs_per_bank)
        0;
    words = Array.make words 0;
    deleted = Bytes.make words '\000';
  }

(* A write-back or delete waiting for the end of its cycle. *)
type commit = { loc : Job.mem_loc; value : int; delete : bool }

(* The state of one walk over a job's cycles. *)
type run = {
  job : Job.t;
  m : machine;
  pending : commit list array;  (* cycle -> its commits, newest first *)
  lanes : int array;  (* cycle -> commits that take a crossbar lane *)
  mutable strays : Job.mem_loc list;
      (* commits for a cycle already simulated or past the end *)
  mutable temp_node : int array;
  mutable temp_value : int array;
  mutable temps : int;  (* the bundle's computed values, oldest first *)
  mutable moves_executed : int;
  mutable copies : int;
  mutable alu_firings : int;
  mutable writebacks : int;
  mutable deletes : int;
  mutable max_bus : int;
  mutable now : int;  (* the cycle being walked; -1 outside the cycles *)
  collect : bool;
  mutable findings : D.t list;  (* newest first; only when [collect] *)
  emit : (event -> unit) option;  (* [None] when no one consumes events *)
}

(* {2 Findings}

   Every allocation rule is checked once, in this walk. A broken rule is
   reported here: [run] raises it as [Fault], [check_diags] records it
   and walks on, with a neutral value (0) where the broken rule left
   none. No check reads a value the job computes, so a walk on zero
   inputs finds what any run would. *)
let fault r rule fmt =
  Format.kasprintf
    (fun msg ->
      if not r.collect then raise (Fault msg);
      let node = if r.now < 0 then None else Some r.now in
      r.findings <- D.error ?node rule "%s" msg :: r.findings)
    fmt

(* All machine accesses are bounds-checked, so that a malformed job (e.g.
   a corrupted configuration image) faults cleanly instead of crashing. *)
let reg_exists m (r : Job.reg) =
  r.Job.pp >= 0
  && r.Job.pp < m.pps
  && r.Job.bank >= 0
  && r.Job.bank < m.banks
  && r.Job.index >= 0
  && r.Job.index < m.regs_per_bank

let mem_exists m (loc : Job.mem_loc) =
  loc.Job.mpp >= 0
  && loc.Job.mpp < m.pps
  && loc.Job.mem >= 0
  && loc.Job.mem < m.memories
  && loc.Job.addr >= 0
  && loc.Job.addr < m.memory_size

let reg_slot m (r : Job.reg) = (((r.Job.pp * m.banks) + r.Job.bank) * m.regs_per_bank) + r.Job.index

let mem_slot m (loc : Job.mem_loc) =
  (((loc.Job.mpp * m.memories) + loc.Job.mem) * m.memory_size) + loc.Job.addr

let reg_fault r reg =
  fault r "alloc.reg-bounds" "register out of range: %a" Job.pp_reg reg

let mem_ok r loc =
  mem_exists r.m loc
  || (fault r "alloc.mem-bounds" "memory location out of range: %a"
        Job.pp_mem_loc loc;
      false)

let read_mem r (loc : Job.mem_loc) =
  if not (mem_ok r loc) then 0
  else begin
    let slot = mem_slot r.m loc in
    if Bytes.get r.m.deleted slot <> '\000' then
      fault r "alloc.deleted-read" "read of deleted word at %a" Job.pp_mem_loc
        loc;
    r.m.words.(slot)
  end

let write_mem r (loc : Job.mem_loc) v =
  if mem_ok r loc then begin
    let slot = mem_slot r.m loc in
    r.m.words.(slot) <- v;
    Bytes.set r.m.deleted slot '\000'
  end

let delete_mem r (loc : Job.mem_loc) =
  if mem_ok r loc then Bytes.set r.m.deleted (mem_slot r.m loc) '\001'

let read_reg r (reg : Job.reg) =
  if reg_exists r.m reg then r.m.regs.(reg_slot r.m reg)
  else begin
    reg_fault r reg;
    0
  end

let write_reg r (reg : Job.reg) v =
  if reg_exists r.m reg then r.m.regs.(reg_slot r.m reg) <- v else reg_fault r reg

(* Queues a commit for the end of [cycle], seen from cycle [now]. A
   preservation copy already counted its lane when it read, so its commit
   does not. *)
let defer r ~now ~lane cycle loc value delete =
  if cycle < now || cycle >= Array.length r.pending then
    r.strays <- loc :: r.strays
  else begin
    r.pending.(cycle) <- { loc; value; delete } :: r.pending.(cycle);
    if lane then r.lanes.(cycle) <- r.lanes.(cycle) + 1
  end

(* {2 Per-cycle checks}

   Each resource check asks whether two of the cycle's uses share a unit.
   A cycle holds a handful of uses, so the pairs are compared directly. *)

let rec on_pp pp = function
  | [] -> false
  | (w : Job.alu_work) :: rest -> w.Job.wpp = pp || on_pp pp rest

let rec two_bundles_one_pp = function
  | [] -> false
  | (w : Job.alu_work) :: rest -> on_pp w.Job.wpp rest || two_bundles_one_pp rest

let same_bank (a : Job.reg) (b : Job.reg) = a.Job.pp = b.Job.pp && a.Job.bank = b.Job.bank

let rec bank_in_moves r = function
  | [] -> false
  | (mv : Job.move) :: rest -> same_bank r mv.Job.dst || bank_in_moves r rest

let rec bank_in_dests r = function
  | [] -> false
  | ((_ : int), d) :: rest -> same_bank r d || bank_in_dests r rest

let rec bank_in_works r = function
  | [] -> false
  | (w : Job.alu_work) :: rest -> bank_in_dests r w.Job.reg_dests || bank_in_works r rest

(* Two register-bank writes (moves, then forwards) on one bank. *)
let rec bank_conflict moves works =
  match moves with
  | (mv : Job.move) :: rest ->
    bank_in_moves mv.Job.dst rest
    || bank_in_works mv.Job.dst works
    || bank_conflict rest works
  | [] -> (
    match works with
    | [] -> false
    | (w : Job.alu_work) :: rest -> dest_conflict w.Job.reg_dests rest || bank_conflict [] rest)

and dest_conflict dests works =
  match dests with
  | [] -> false
  | ((_ : int), r) :: rest ->
    bank_in_dests r rest || bank_in_works r works || dest_conflict rest works

let same_memory (a : Job.mem_loc) (b : Job.mem_loc) =
  a.Job.mpp = b.Job.mpp && a.Job.mem = b.Job.mem

let rec memory_in_moves loc = function
  | [] -> false
  | (mv : Job.move) :: rest -> same_memory loc mv.Job.src || memory_in_moves loc rest

let rec memory_in_copies loc = function
  | [] -> false
  | (cp : Job.copy) :: rest -> same_memory loc cp.Job.csrc || memory_in_copies loc rest

(* Two memory reads (moves, then copies) on one memory. *)
let rec read_conflict moves copies =
  match moves with
  | (mv : Job.move) :: rest ->
    memory_in_moves mv.Job.src rest
    || memory_in_copies mv.Job.src copies
    || read_conflict rest copies
  | [] -> (
    match copies with
    | [] -> false
    | (cp : Job.copy) :: rest -> memory_in_copies cp.Job.csrc rest || read_conflict [] rest)

let rec cell_in loc = function
  | [] -> false
  | c :: rest ->
    (same_memory loc c.loc && loc.Job.addr = c.loc.Job.addr) || cell_in loc rest

let rec race = function [] -> false | c :: rest -> cell_in c.loc rest || race rest

let rec memory_in loc = function
  | [] -> false
  | c :: rest -> same_memory loc c.loc || memory_in loc rest

let rec port_conflict = function
  | [] -> false
  | c :: rest -> memory_in c.loc rest || port_conflict rest

let rec check_pp_range r index = function
  | [] -> ()
  | (w : Job.alu_work) :: rest ->
    if w.Job.wpp < 0 || w.Job.wpp >= r.job.Job.tile.Arch.alu_count then
      fault r "alloc.pp-conflict" "cycle %d: PP %d out of range" index w.Job.wpp;
    check_pp_range r index rest

(* {2 ALU bundles} *)

let rec imm_value r (work : Job.alu_work) p = function
  | (q, v) :: rest -> if q = p then v else imm_value r work p rest
  | [] ->
    fault r "alloc.bundle" "cluster %d: port %d has no source" work.Job.wcluster p;
    0

let rec port_value r (work : Job.alu_work) p = function
  | (q, reg) :: rest -> if q = p then read_reg r reg else port_value r work p rest
  | [] -> imm_value r work p work.Job.port_imms

(* The latest value computed for node [id] in the bundle. *)
let rec temp r (work : Job.alu_work) id i =
  if i < 0 then begin
    fault r "alloc.bundle" "cluster %d: internal value t%d not yet computed"
      work.Job.wcluster id;
    0
  end
  else if r.temp_node.(i) = id then r.temp_value.(i)
  else temp r work id (i - 1)

let arg_value r work = function
  | Job.Port p -> port_value r work p work.Job.port_regs
  | Job.Node id -> temp r work id (r.temps - 1)

let keep_temp r id v =
  if r.temps = Array.length r.temp_node then begin
    let grow a =
      let b = Array.make (2 * r.temps) 0 in
      Array.blit a 0 b 0 r.temps;
      b
    in
    r.temp_node <- grow r.temp_node;
    r.temp_value <- grow r.temp_value
  end;
  r.temp_node.(r.temps) <- id;
  r.temp_value.(r.temps) <- v;
  r.temps <- r.temps + 1

(* Operands are read left to right before the arity is checked. *)
let exec_micro r work (micro : Job.micro) =
  match (micro.Job.action, micro.Job.args) with
  | Job.Bin op, [ a; b ] ->
    let a = arg_value r work a in
    Cdfg.Op.eval_binop op a (arg_value r work b)
  | Job.Un op, [ a ] -> Cdfg.Op.eval_unop op (arg_value r work a)
  | Job.Mux3, [ c; t; f ] ->
    let c = arg_value r work c in
    let t = arg_value r work t in
    let f = arg_value r work f in
    if c <> 0 then t else f
  | Job.Pass, [ a ] -> arg_value r work a
  | (Job.Bin _ | Job.Un _ | Job.Mux3 | Job.Pass), args ->
    List.iter (fun a -> ignore (arg_value r work a)) args;
    fault r "alloc.bundle" "cluster %d: malformed micro-op arity" work.Job.wcluster;
    0

let rec exec_micros r work = function
  | [] ->
    fault r "alloc.bundle" "cluster %d executes no micro-op" work.Job.wcluster;
    0
  | [ micro ] -> exec_micro r work micro
  | (micro : Job.micro) :: rest ->
    keep_temp r micro.Job.node (exec_micro r work micro);
    exec_micros r work rest

(* Whether a micro-op read this entry of the port list: [port_value]
   takes the first register listed for a port. *)
let entry_read (work : Job.alu_work) p reg =
  (match List.assoc_opt p work.Job.port_regs with
  | Some first -> first == reg
  | None -> false)
  && List.exists
       (fun (micro : Job.micro) -> List.mem (Job.Port p) micro.Job.args)
       work.Job.micros

(* A port is configured whether or not a micro-op reads it, so its
   register must exist. Checked once the bundle ran, so that the reads
   fault first, in operand order; a register read there already did. *)
let rec check_ports r (work : Job.alu_work) = function
  | [] -> ()
  | (p, reg) :: rest ->
    if not (reg_exists r.m reg || entry_read work p reg) then reg_fault r reg;
    check_ports r work rest

(* Evaluates one ALU bundle from its register/immediate ports. *)
let exec_alu r (work : Job.alu_work) =
  r.temps <- 0;
  let v = exec_micros r work work.Job.micros in
  check_ports r work work.Job.port_regs;
  v

(* {2 One cycle} *)

let emitting r = match r.emit with Some _ -> true | None -> false
let emit r ev = match r.emit with Some f -> f ev | None -> ()

let rec count_forwards acc = function
  | [] -> acc
  | (w : Job.alu_work) :: rest -> count_forwards (acc + List.length w.Job.reg_dests) rest

let rec run_moves r index = function
  | [] -> ()
  | (mv : Job.move) :: rest ->
    r.moves_executed <- r.moves_executed + 1;
    let v = read_mem r mv.Job.src in
    if emitting r then
      emit r (Move { cycle = index; src = mv.Job.src; dst = mv.Job.dst; value = v });
    write_reg r mv.Job.dst v;
    run_moves r index rest

let rec run_copies r index = function
  | [] -> ()
  | (cp : Job.copy) :: rest ->
    r.copies <- r.copies + 1;
    let v = read_mem r cp.Job.csrc in
    if emitting r then
      emit r (Keep { cycle = index; src = cp.Job.csrc; dst = cp.Job.cdst; value = v });
    defer r ~now:index ~lane:false index cp.Job.cdst v false;
    run_copies r index rest

let rec queue_writes r index v = function
  | [] -> ()
  | (w : Job.write) :: rest ->
    defer r ~now:index ~lane:true w.Job.wcycle w.Job.target v false;
    queue_writes r index v rest

let rec forward r index v = function
  | [] -> ()
  | (fcycle, dst) :: rest ->
    if fcycle <> index then
      fault r "alloc.bus-capacity" "cycle %d: forward scheduled at %d" index fcycle;
    write_reg r dst v;
    forward r index v rest

let rec run_bundles r index = function
  | [] -> ()
  | (work : Job.alu_work) :: rest ->
    let v = exec_alu r work in
    r.alu_firings <- r.alu_firings + 1;
    if emitting r then
      emit r (Alu { cycle = index; pp = work.Job.wpp; cluster = work.Job.wcluster; value = v });
    queue_writes r index v work.Job.writes;
    forward r index v work.Job.reg_dests;
    run_bundles r index rest

let rec queue_deletes r index = function
  | [] -> ()
  | (d : Job.delete_work) :: rest ->
    defer r ~now:index ~lane:true d.Job.dcycle d.Job.dloc 0 true;
    queue_deletes r index rest

let rec run_commits r index = function
  | [] -> ()
  | c :: rest ->
    if c.delete then begin
      r.deletes <- r.deletes + 1;
      if emitting r then emit r (Delete { cycle = index; loc = c.loc });
      delete_mem r c.loc
    end
    else begin
      r.writebacks <- r.writebacks + 1;
      if emitting r then emit r (Writeback { cycle = index; loc = c.loc; value = c.value });
      write_mem r c.loc c.value
    end;
    run_commits r index rest

let step r index (cycle : Job.cycle) =
  let tile = r.job.Job.tile in
  (* one ALU bundle per PP *)
  if two_bundles_one_pp cycle.Job.alu then
    fault r "alloc.pp-conflict" "cycle %d: two bundles on one ALU" index;
  check_pp_range r index cycle.Job.alu;
  (* Crossbar usage this cycle: moves issued now + writes/forwards that
     commit now (they were counted by the allocator at their commit
     cycle). *)
  let bus_now =
    List.length cycle.Job.moves + List.length cycle.Job.copies + r.lanes.(index)
    + count_forwards 0 cycle.Job.alu
  in
  r.max_bus <- max r.max_bus bus_now;
  if bus_now > tile.Arch.buses then
    fault r "alloc.bus-capacity" "cycle %d: %d crossbar transfers exceed %d lanes"
      index bus_now tile.Arch.buses;
  (* register banks: one write port per (pp, bank) per cycle *)
  if bank_conflict cycle.Job.moves cycle.Job.alu then
    fault r "alloc.write-conflict" "cycle %d: register-bank write-port conflict" index;
  (* memory read ports: one read per memory per cycle *)
  if read_conflict cycle.Job.moves cycle.Job.copies then
    fault r "alloc.read-conflict" "cycle %d: memory read-port conflict" index;
  (* 1. moves and preservation copies read memory (state before this
     cycle's writes) *)
  run_moves r index cycle.Job.moves;
  run_copies r index cycle.Job.copies;
  (* 2. ALU bundles execute; results queue their write-backs *)
  run_bundles r index cycle.Job.alu;
  (* 3. deletes queue *)
  queue_deletes r index cycle.Job.deletes;
  (* 4. end of cycle: commit writes scheduled for this cycle *)
  match r.pending.(index) with
  | [] -> ()
  | commits ->
    if race commits then
      fault r "alloc.write-conflict" "cycle %d: two writes race on one cell" index;
    if port_conflict commits then
      fault r "alloc.write-conflict" "cycle %d: memory write-port conflict" index;
    run_commits r index commits;
    r.pending.(index) <- []

(* {2 The walk} *)

let region_init memory_init region =
  match List.assoc_opt region memory_init with Some arr -> arr | None -> [||]

(* Seeds region contents at their home cells. Every slice base must
   exist, even one no cell reaches. Past a region's first missing cell
   the rest of that slice is missing too, so the region stops there with
   one finding: a corrupted size cannot make the walk loop. *)
let seed r memory_init =
  List.iter
    (fun (region, slices) ->
      let words = Job.size_of r.job region in
      let init = region_init memory_init region in
      let bases_ok = List.fold_left (fun ok loc -> mem_ok r loc && ok) true slices in
      if words > 0 && slices = [] then
        fault r "alloc.mem-bounds" "region %s has no home" region
      else if bases_ok then begin
        let rec fill offset =
          if offset < words then begin
            let loc = Job.interleaved_cell slices offset in
            if mem_ok r loc then begin
              write_mem r loc (if offset < Array.length init then init.(offset) else 0);
              fill (offset + 1)
            end
          end
        in
        fill 0
      end)
    r.job.Job.region_homes

let walk ?(memory_init = []) ?emit ~collect (job : Job.t) =
  let cycles = Array.length job.Job.cycles in
  let r =
    {
      job;
      m = create_machine job.Job.tile;
      pending = Array.make cycles [];
      lanes = Array.make cycles 0;
      strays = [];
      temp_node = Array.make 8 0;
      temp_value = Array.make 8 0;
      temps = 0;
      moves_executed = 0;
      copies = 0;
      alu_firings = 0;
      writebacks = 0;
      deletes = 0;
      max_bus = 0;
      now = -1;
      collect;
      findings = [];
      emit;
    }
  in
  seed r memory_init;
  Array.iteri
    (fun index (cycle : Job.cycle) ->
      r.now <- index;
      if Obs.enabled () && not collect then
        Obs.span ~cat:"sim"
          ~args:
            [
              ("index", Obs.Int index);
              ("alu", Obs.Int (List.length cycle.Job.alu));
              ("moves", Obs.Int (List.length cycle.Job.moves));
            ]
          "cycle"
          (fun () -> step r index cycle)
      else step r index cycle)
    job.Job.cycles;
  r.now <- -1;
  (match r.strays with
  | [] -> ()
  | strays ->
    fault r "alloc.write-conflict" "write-backs scheduled past the end of the job";
    (* never committed, but still configured *)
    List.iter (fun loc -> ignore (mem_ok r loc)) (List.rev strays));
  r

let check_diags job = List.rev (walk ~collect:true job).findings

let run ?(memory_init = []) ?trace_out ?on_event (job : Job.t) =
  Obs.span ~cat:"sim" "run"
    ~args:[ ("cycles", Obs.Int (Array.length job.Job.cycles)) ]
  @@ fun () ->
  (* Events are only materialised when someone consumes them; the common
     no-trace path must not allocate per action. *)
  let emit =
    match (trace_out, on_event) with
    | None, None -> None
    | _ ->
      Some
        (fun ev ->
          (match trace_out with
          | Some out -> Format.fprintf out "%a@." pp_event ev
          | None -> ());
          match on_event with Some f -> f ev | None -> ())
  in
  let r = walk ~memory_init ?emit ~collect:false job in
  let cycles = Array.length job.Job.cycles in
  Obs.add c_cycles cycles;
  Obs.add c_moves r.moves_executed;
  Obs.add c_copies r.copies;
  Obs.add c_alu r.alu_firings;
  Obs.add c_writebacks r.writebacks;
  Obs.add c_deletes r.deletes;
  Obs.record_max c_bus_peak r.max_bus;
  let m = r.m in
  let memory =
    List.map
      (fun (region, slices) ->
        let words = Job.size_of job region in
        let init = region_init memory_init region in
        (* Cells past the statically-touched span never reach the tile:
           they keep their initial (host) contents. *)
        let total = max words (Array.length init) in
        ( region,
          Array.init total (fun offset ->
              if offset >= words then init.(offset)
              else
                let slot = mem_slot m (Job.interleaved_cell slices offset) in
                if Bytes.get m.deleted slot <> '\000' then 0 else m.words.(slot)) ))
      job.Job.region_homes
  in
  ( memory,
    {
      cycles_run = cycles;
      max_bus_per_cycle = r.max_bus;
      moves_executed = r.moves_executed;
      writes_executed = r.writebacks + r.deletes;
    } )

let conforms ?memory_init job =
  let sim_memory, _ = run ?memory_init job in
  let expected = Cdfg.Eval.run ?memory_init job.Job.graph in
  List.for_all
    (fun (region, sim_arr) ->
      match List.assoc_opt region expected.Cdfg.Eval.memory with
      | None -> Array.for_all (fun v -> v = 0) sim_arr
      | Some eval_arr ->
        let words = Array.length sim_arr in
        let get arr i = if i < Array.length arr then arr.(i) else 0 in
        let rec loop i =
          i >= words || (get sim_arr i = get eval_arr i && loop (i + 1))
        in
        loop 0)
    sim_memory
