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

type cell = Word of int | Deleted

type machine = {
  regs : int array array array;  (* pp, bank, index *)
  mems : cell array array array;  (* pp, mem, addr *)
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
    || loc.Job.mpp >= Array.length m.mems
    || loc.Job.mem < 0
    || loc.Job.mem >= Array.length m.mems.(loc.Job.mpp)
    || loc.Job.addr < 0
    || loc.Job.addr >= Array.length m.mems.(loc.Job.mpp).(loc.Job.mem)
  then
    faultf "memory location out of range: %s"
      (Format.asprintf "%a" Job.pp_mem_loc loc)

let create_machine (tile : Arch.tile) =
  {
    regs =
      Array.init tile.Arch.alu_count (fun _ ->
          Array.init tile.Arch.banks_per_pp (fun _ ->
              Array.make tile.Arch.regs_per_bank 0));
    mems =
      Array.init tile.Arch.alu_count (fun _ ->
          Array.init tile.Arch.memories_per_pp (fun _ ->
              Array.make tile.Arch.memory_size (Word 0)));
  }

let read_mem m (loc : Job.mem_loc) =
  check_mem m loc;
  match m.mems.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr) with
  | Word v -> v
  | Deleted -> faultf "read of deleted word at %s" (Format.asprintf "%a" Job.pp_mem_loc loc)

let write_mem m (loc : Job.mem_loc) v =
  check_mem m loc;
  m.mems.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr) <- Word v

let delete_mem m (loc : Job.mem_loc) =
  check_mem m loc;
  m.mems.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr) <- Deleted

let read_reg m (r : Job.reg) =
  check_reg m r;
  m.regs.(r.Job.pp).(r.Job.bank).(r.Job.index)

let write_reg m (r : Job.reg) v =
  check_reg m r;
  m.regs.(r.Job.pp).(r.Job.bank).(r.Job.index) <- v

(* Evaluates one ALU bundle from its register/immediate ports. *)
let exec_alu m (work : Job.alu_work) =
  let port_value p =
    match List.assoc_opt p work.Job.port_regs with
    | Some r -> read_reg m r
    | None -> (
      match List.assoc_opt p work.Job.port_imms with
      | Some v -> v
      | None -> faultf "cluster %d: port %d has no source" work.Job.wcluster p)
  in
  let temps = Hashtbl.create 8 in
  let arg_value = function
    | Job.Port p -> port_value p
    | Job.Node id -> (
      match Hashtbl.find_opt temps id with
      | Some v -> v
      | None -> faultf "cluster %d: internal value t%d not yet computed" work.Job.wcluster id)
  in
  let result = ref None in
  List.iter
    (fun (micro : Job.micro) ->
      let args = List.map arg_value micro.Job.args in
      let v =
        match (micro.Job.action, args) with
        | Job.Bin op, [ a; b ] -> Cdfg.Op.eval_binop op a b
        | Job.Un op, [ a ] -> Cdfg.Op.eval_unop op a
        | Job.Mux3, [ c; t; f ] -> if c <> 0 then t else f
        | Job.Pass, [ a ] -> a
        | (Job.Bin _ | Job.Un _ | Job.Mux3 | Job.Pass), _ ->
          faultf "cluster %d: malformed micro-op arity" work.Job.wcluster
      in
      Hashtbl.replace temps micro.Job.node v;
      result := Some v)
    work.Job.micros;
  match !result with
  | Some v -> v
  | None -> faultf "cluster %d executes no micro-op" work.Job.wcluster

let check_static_constraints tile (cycle : Job.cycle) index =
  (* one ALU bundle per PP *)
  let pps = List.map (fun (w : Job.alu_work) -> w.Job.wpp) cycle.Job.alu in
  if List.length pps <> List.length (Fpfa_util.Listx.uniq compare pps) then
    faultf "cycle %d: two bundles on one ALU" index;
  List.iter
    (fun pp ->
      if pp < 0 || pp >= tile.Arch.alu_count then
        faultf "cycle %d: PP %d out of range" index pp)
    pps

let run ?(memory_init = []) ?trace_out ?on_event (job : Job.t) =
  Obs.span ~cat:"sim" "run"
    ~args:[ ("cycles", Obs.Int (Array.length job.Job.cycles)) ]
  @@ fun () ->
  let tile = job.Job.tile in
  let m = create_machine tile in
  (* Events are only materialised when someone consumes them; the common
     no-trace path must not allocate per action. *)
  let want_events = trace_out <> None || on_event <> None in
  let emit ev =
    (match trace_out with
    | Some out -> Format.fprintf out "%a@." pp_event ev
    | None -> ());
    match on_event with Some f -> f ev | None -> ()
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
  (* Deferred write-backs: (cycle, loc, value or delete, counts a crossbar
     lane at commit time). Preservation copies already counted their lane
     when they read, so their commit does not. *)
  let pending_writes
      : (int, (Job.mem_loc * int option * bool) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let defer ?(lane = true) cycle loc payload =
    let old =
      match Hashtbl.find_opt pending_writes cycle with Some l -> l | None -> []
    in
    Hashtbl.replace pending_writes cycle ((loc, payload, lane) :: old)
  in
  let moves_executed = ref 0 in
  let writes_executed = ref 0 in
  let max_bus = ref 0 in
  Array.iteri
    (fun index (cycle : Job.cycle) ->
      let exec_cycle () =
      check_static_constraints tile cycle index;
      (* Crossbar usage this cycle: moves issued now + writes/forwards that
         commit now (they were counted by the allocator at their commit
         cycle). *)
      let commits_now =
        match Hashtbl.find_opt pending_writes index with
        | Some l -> List.length (List.filter (fun (_, _, lane) -> lane) l)
        | None -> 0
      in
      let forwards_now =
        Fpfa_util.Listx.sum
          (List.map
             (fun (w : Job.alu_work) -> List.length w.Job.reg_dests)
             cycle.Job.alu)
      in
      let bus_now =
        List.length cycle.Job.moves + List.length cycle.Job.copies
        + commits_now + forwards_now
      in
      max_bus := max !max_bus bus_now;
      Obs.record_max c_bus_peak bus_now;
      if bus_now > tile.Arch.buses then
        faultf "cycle %d: %d crossbar transfers exceed %d lanes" index bus_now
          tile.Arch.buses;
      (* register banks: one write port per (pp, bank) per cycle *)
      let bank_writes =
        List.map
          (fun (mv : Job.move) -> (mv.Job.dst.Job.pp, mv.Job.dst.Job.bank))
          cycle.Job.moves
        @ List.concat_map
            (fun (w : Job.alu_work) ->
              List.map
                (fun ((_ : int), (r : Job.reg)) -> (r.Job.pp, r.Job.bank))
                w.Job.reg_dests)
            cycle.Job.alu
      in
      if
        List.length bank_writes
        <> List.length (Fpfa_util.Listx.uniq compare bank_writes)
      then faultf "cycle %d: register-bank write-port conflict" index;
      (* memory read ports: one read per memory per cycle *)
      let reads =
        List.map
          (fun (mv : Job.move) -> (mv.Job.src.Job.mpp, mv.Job.src.Job.mem))
          cycle.Job.moves
        @ List.map
            (fun (cp : Job.copy) -> (cp.Job.csrc.Job.mpp, cp.Job.csrc.Job.mem))
            cycle.Job.copies
      in
      if List.length reads <> List.length (Fpfa_util.Listx.uniq compare reads)
      then faultf "cycle %d: memory read-port conflict" index;
      (* 1. moves and preservation copies read memory (state before this
         cycle's writes) *)
      List.iter
        (fun (mv : Job.move) ->
          incr moves_executed;
          Obs.incr c_moves;
          let v = read_mem m mv.Job.src in
          if want_events then
            emit (Move { cycle = index; src = mv.Job.src; dst = mv.Job.dst; value = v });
          write_reg m mv.Job.dst v)
        cycle.Job.moves;
      List.iter
        (fun (cp : Job.copy) ->
          Obs.incr c_copies;
          let v = read_mem m cp.Job.csrc in
          if want_events then
            emit (Keep { cycle = index; src = cp.Job.csrc; dst = cp.Job.cdst; value = v });
          defer ~lane:false index cp.Job.cdst (Some v))
        cycle.Job.copies;
      (* 2. ALU bundles execute; results queue their write-backs *)
      List.iter
        (fun (work : Job.alu_work) ->
          let v = exec_alu m work in
          Obs.incr c_alu;
          if want_events then
            emit
              (Alu { cycle = index; pp = work.Job.wpp; cluster = work.Job.wcluster; value = v });
          List.iter
            (fun (w : Job.write) -> defer w.Job.wcycle w.Job.target (Some v))
            work.Job.writes;
          List.iter
            (fun (fcycle, r) ->
              if fcycle <> index then
                faultf "cycle %d: forward scheduled at %d" index fcycle;
              write_reg m r v)
            work.Job.reg_dests)
        cycle.Job.alu;
      (* 3. deletes queue *)
      List.iter
        (fun (d : Job.delete_work) -> defer d.Job.dcycle d.Job.dloc None)
        cycle.Job.deletes;
      (* 4. end of cycle: commit writes scheduled for this cycle *)
      (match Hashtbl.find_opt pending_writes index with
      | Some commits ->
        let targets = List.map (fun (loc, _, _) -> loc) commits in
        if
          List.length targets
          <> List.length (Fpfa_util.Listx.uniq compare targets)
        then faultf "cycle %d: two writes race on one cell" index;
        let ports =
          List.map
            (fun ((loc : Job.mem_loc), _, _) -> (loc.Job.mpp, loc.Job.mem))
            commits
        in
        if List.length ports <> List.length (Fpfa_util.Listx.uniq compare ports)
        then faultf "cycle %d: memory write-port conflict" index;
        List.iter
          (fun (loc, payload, _) ->
            incr writes_executed;
            match payload with
            | Some v ->
              Obs.incr c_writebacks;
              if want_events then
                emit (Writeback { cycle = index; loc; value = v });
              write_mem m loc v
            | None ->
              Obs.incr c_deletes;
              if want_events then emit (Delete { cycle = index; loc });
              delete_mem m loc)
          commits;
        Hashtbl.remove pending_writes index
      | None -> ())
      in
      if Obs.enabled () then
        Obs.span ~cat:"sim"
          ~args:
            [
              ("index", Obs.Int index);
              ("alu", Obs.Int (List.length cycle.Job.alu));
              ("moves", Obs.Int (List.length cycle.Job.moves));
            ]
          "cycle" exec_cycle
      else exec_cycle ())
    job.Job.cycles;
  Obs.add c_cycles (Array.length job.Job.cycles);
  if Hashtbl.length pending_writes > 0 then
    faultf "write-backs scheduled past the end of the job";
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
                match m.mems.(loc.Job.mpp).(loc.Job.mem).(loc.Job.addr) with
                | Word v -> v
                | Deleted -> 0) ))
      job.Job.region_homes
  in
  ( memory,
    {
      cycles_run = Array.length job.Job.cycles;
      max_bus_per_cycle = !max_bus;
      moves_executed = !moves_executed;
      writes_executed = !writes_executed;
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
