module Arch = Fpfa_arch.Arch
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

let faultf fmt = Format.kasprintf (fun msg -> raise (Fault msg)) fmt

type machine = {
  regs : int array array array;  (* pp, bank, index *)
  words : int array array array;  (* pp, mem, addr *)
  deleted : Bytes.t array array;
      (* pp, mem -> one byte per address, set while the word is deleted *)
}

(* All machine accesses are bounds-checked so that a malformed job (e.g. a
   corrupted configuration image) faults cleanly instead of crashing. *)
let check_reg m (r : Job.reg) =
  if
    r.Job.pp < 0
    || r.Job.pp >= Array.length m.regs
    || r.Job.bank < 0
    || r.Job.bank >= Array.length m.regs.(r.Job.pp)
    || r.Job.index < 0
    || r.Job.index >= Array.length m.regs.(r.Job.pp).(r.Job.bank)
  then
    faultf "register out of range: %s" (Format.asprintf "%a" Job.pp_reg r)

let check_mem m (loc : Job.mem_loc) =
  if
    loc.Job.mpp < 0
    || loc.Job.mpp >= Array.length m.words
    || loc.Job.mem < 0
    || loc.Job.mem >= Array.length m.words.(loc.Job.mpp)
    || loc.Job.addr < 0
    || loc.Job.addr >= Array.length m.words.(loc.Job.mpp).(loc.Job.mem)
  then
    faultf "memory location out of range: %s"
      (Format.asprintf "%a" Job.pp_mem_loc loc)

let create_machine (tile : Arch.tile) =
  let per_memory f =
    Array.init tile.Arch.alu_count (fun _ ->
        Array.init tile.Arch.memories_per_pp (fun _ -> f tile.Arch.memory_size))
  in
  {
    regs =
      Array.init tile.Arch.alu_count (fun _ ->
          Array.init tile.Arch.banks_per_pp (fun _ ->
              Array.make tile.Arch.regs_per_bank 0));
    words = per_memory (fun size -> Array.make size 0);
    deleted = per_memory (fun size -> Bytes.make size '\000');
  }

let is_deleted m (loc : Job.mem_loc) =
  Bytes.get m.deleted.(loc.Job.mpp).(loc.Job.mem) loc.Job.addr <> '\000'

let read_mem m (loc : Job.mem_loc) =
  check_mem m loc;
  if is_deleted m loc then
    faultf "read of deleted word at %s" (Format.asprintf "%a" Job.pp_mem_loc loc);
  m.words.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr)

let write_mem m (loc : Job.mem_loc) v =
  check_mem m loc;
  m.words.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr) <- v;
  Bytes.set m.deleted.(loc.Job.mpp).(loc.Job.mem) loc.Job.addr '\000'

let delete_mem m (loc : Job.mem_loc) =
  check_mem m loc;
  Bytes.set m.deleted.(loc.Job.mpp).(loc.Job.mem) loc.Job.addr '\001'

let read_reg m (r : Job.reg) =
  check_reg m r;
  m.regs.(r.Job.pp).(r.Job.bank).(r.Job.index)

let write_reg m (r : Job.reg) v =
  check_reg m r;
  m.regs.(r.Job.pp).(r.Job.bank).(r.Job.index) <- v

(* A write-back or delete waiting for the end of its cycle. *)
type commit = { loc : Job.mem_loc; value : int; delete : bool }

(* The state of one run. *)
type run = {
  job : Job.t;
  m : machine;
  pending : commit list array;  (* cycle -> its commits, newest first *)
  lanes : int array;  (* cycle -> commits that take a crossbar lane *)
  mutable stray : int;
      (* commits for a cycle already simulated or past the end *)
  mutable temp_node : int array;
  mutable temp_value : int array;
  mutable temps : int;  (* the bundle's computed values, oldest first *)
  mutable moves_executed : int;
  mutable writes_executed : int;
  mutable max_bus : int;
  emit : (event -> unit) option;  (* [None] when no one consumes events *)
}

(* Queues a commit for the end of [cycle], seen from cycle [now]. A
   preservation copy already counted its lane when it read, so its commit
   does not. *)
let defer r ~now ~lane cycle loc value delete =
  if cycle < now || cycle >= Array.length r.pending then r.stray <- r.stray + 1
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

let rec check_pp_range tile index = function
  | [] -> ()
  | (w : Job.alu_work) :: rest ->
    if w.Job.wpp < 0 || w.Job.wpp >= tile.Arch.alu_count then
      faultf "cycle %d: PP %d out of range" index w.Job.wpp;
    check_pp_range tile index rest

let check_static_constraints tile (cycle : Job.cycle) index =
  (* one ALU bundle per PP *)
  if two_bundles_one_pp cycle.Job.alu then
    faultf "cycle %d: two bundles on one ALU" index;
  check_pp_range tile index cycle.Job.alu

(* {2 ALU bundles} *)

let rec imm_value (work : Job.alu_work) p = function
  | (q, v) :: rest -> if q = p then v else imm_value work p rest
  | [] -> faultf "cluster %d: port %d has no source" work.Job.wcluster p

let rec port_value m (work : Job.alu_work) p = function
  | (q, r) :: rest -> if q = p then read_reg m r else port_value m work p rest
  | [] -> imm_value work p work.Job.port_imms

(* The latest value computed for node [id] in the bundle. *)
let rec temp r (work : Job.alu_work) id i =
  if i < 0 then
    faultf "cluster %d: internal value t%d not yet computed" work.Job.wcluster id
  else if r.temp_node.(i) = id then r.temp_value.(i)
  else temp r work id (i - 1)

let arg_value r work = function
  | Job.Port p -> port_value r.m work p work.Job.port_regs
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
    faultf "cluster %d: malformed micro-op arity" work.Job.wcluster

let rec exec_micros r work = function
  | [] -> faultf "cluster %d executes no micro-op" work.Job.wcluster
  | [ micro ] -> exec_micro r work micro
  | (micro : Job.micro) :: rest ->
    keep_temp r micro.Job.node (exec_micro r work micro);
    exec_micros r work rest

(* Evaluates one ALU bundle from its register/immediate ports. *)
let exec_alu r (work : Job.alu_work) =
  r.temps <- 0;
  exec_micros r work work.Job.micros

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
    Obs.incr c_moves;
    let v = read_mem r.m mv.Job.src in
    if emitting r then
      emit r (Move { cycle = index; src = mv.Job.src; dst = mv.Job.dst; value = v });
    write_reg r.m mv.Job.dst v;
    run_moves r index rest

let rec run_copies r index = function
  | [] -> ()
  | (cp : Job.copy) :: rest ->
    Obs.incr c_copies;
    let v = read_mem r.m cp.Job.csrc in
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
    if fcycle <> index then faultf "cycle %d: forward scheduled at %d" index fcycle;
    write_reg r.m dst v;
    forward r index v rest

let rec run_bundles r index = function
  | [] -> ()
  | (work : Job.alu_work) :: rest ->
    let v = exec_alu r work in
    Obs.incr c_alu;
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
    r.writes_executed <- r.writes_executed + 1;
    if c.delete then begin
      Obs.incr c_deletes;
      if emitting r then emit r (Delete { cycle = index; loc = c.loc });
      delete_mem r.m c.loc
    end
    else begin
      Obs.incr c_writebacks;
      if emitting r then emit r (Writeback { cycle = index; loc = c.loc; value = c.value });
      write_mem r.m c.loc c.value
    end;
    run_commits r index rest

let step r index (cycle : Job.cycle) =
  let tile = r.job.Job.tile in
  check_static_constraints tile cycle index;
  (* Crossbar usage this cycle: moves issued now + writes/forwards that
     commit now (they were counted by the allocator at their commit
     cycle). *)
  let bus_now =
    List.length cycle.Job.moves + List.length cycle.Job.copies + r.lanes.(index)
    + count_forwards 0 cycle.Job.alu
  in
  r.max_bus <- max r.max_bus bus_now;
  Obs.record_max c_bus_peak bus_now;
  if bus_now > tile.Arch.buses then
    faultf "cycle %d: %d crossbar transfers exceed %d lanes" index bus_now
      tile.Arch.buses;
  (* register banks: one write port per (pp, bank) per cycle *)
  if bank_conflict cycle.Job.moves cycle.Job.alu then
    faultf "cycle %d: register-bank write-port conflict" index;
  (* memory read ports: one read per memory per cycle *)
  if read_conflict cycle.Job.moves cycle.Job.copies then
    faultf "cycle %d: memory read-port conflict" index;
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
    if race commits then faultf "cycle %d: two writes race on one cell" index;
    if port_conflict commits then faultf "cycle %d: memory write-port conflict" index;
    run_commits r index commits;
    r.pending.(index) <- []

let run ?(memory_init = []) ?trace_out ?on_event (job : Job.t) =
  Obs.span ~cat:"sim" "run"
    ~args:[ ("cycles", Obs.Int (Array.length job.Job.cycles)) ]
  @@ fun () ->
  let m = create_machine job.Job.tile in
  let cycles = Array.length job.Job.cycles in
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
  let r =
    {
      job;
      m;
      pending = Array.make cycles [];
      lanes = Array.make cycles 0;
      stray = 0;
      temp_node = Array.make 8 0;
      temp_value = Array.make 8 0;
      temps = 0;
      moves_executed = 0;
      writes_executed = 0;
      max_bus = 0;
      emit;
    }
  in
  (* Seed region contents at their home cells. *)
  List.iter
    (fun (region, slices) ->
      let words = Job.size_of job region in
      let init =
        match List.assoc_opt region memory_init with
        | Some arr -> arr
        | None -> [||]
      in
      for offset = 0 to words - 1 do
        let v = if offset < Array.length init then init.(offset) else 0 in
        write_mem m (Job.interleaved_cell slices offset) v
      done)
    job.Job.region_homes;
  Array.iteri
    (fun index (cycle : Job.cycle) ->
      if Obs.enabled () then
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
  Obs.add c_cycles cycles;
  if r.stray > 0 then faultf "write-backs scheduled past the end of the job";
  let memory =
    List.map
      (fun (region, slices) ->
        let words = Job.size_of job region in
        let init =
          match List.assoc_opt region memory_init with
          | Some arr -> arr
          | None -> [||]
        in
        (* Cells past the statically-touched span never reach the tile:
           they keep their initial (host) contents. *)
        let total = max words (Array.length init) in
        ( region,
          Array.init total (fun offset ->
              if offset >= words then init.(offset)
              else
                let loc = Job.interleaved_cell slices offset in
                if is_deleted m loc then 0
                else m.words.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr)) ))
      job.Job.region_homes
  in
  ( memory,
    {
      cycles_run = cycles;
      max_bus_per_cycle = r.max_bus;
      moves_executed = r.moves_executed;
      writes_executed = r.writes_executed;
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
