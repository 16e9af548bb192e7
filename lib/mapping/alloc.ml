module G = Cdfg.Graph
module Arch = Fpfa_arch.Arch
module Obs = Fpfa_obs.Obs

(* Allocator tallies for `--stats` (inert until Obs.enable). "alloc.moves"
   and "alloc.forwards" must reconcile with Mapping.Metrics on the mapped
   job; the test suite checks exactly that. *)
let c_moves = Obs.counter "alloc.moves"
let c_forwards = Obs.counter "alloc.forwards"
let c_copies = Obs.counter "alloc.preserve_copies"
let c_reg_hits = Obs.counter "alloc.register_hits"
let c_retries = Obs.counter "alloc.level_retries"
let c_inserted = Obs.counter "alloc.inserted_cycles"

type options = { locality : bool; forwarding : bool; interleave : bool }

let default_options = { locality = true; forwarding = false; interleave = false }

exception Allocation_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Allocation_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Resource bookkeeping. A level attempt reserves resources directly and
   logs each reservation, so a failed attempt is undone from its log and
   leaves no trace.                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-cycle use of a resource with [slots] instances per cycle (a port
   per PP memory, a write port per register bank, the crossbar's lanes):
   one count per (cycle, slot), in chunks of [chunk_cycles] cycles. A
   chunk is allocated when a reservation first reaches it and is never
   copied; only the short array of chunks grows. Counts are bytes, which
   the GC does not scan: a count never exceeds the resource's capacity
   (every reservation first checks for room), and a valid tile has at
   most 255 of anything ({!Arch.validate}). *)
module Usage = struct
  let chunk_cycles = 128

  type t = {
    slots : int;
    mutable chunks : Bytes.t array;  (* [Bytes.empty] until reached *)
  }

  let create slots = { slots; chunks = [||] }

  let get t ~cycle slot =
    let k = cycle / chunk_cycles in
    if k >= Array.length t.chunks then 0
    else
      let chunk = t.chunks.(k) in
      if Bytes.length chunk = 0 then 0
      else Bytes.get_uint8 chunk (((cycle - (k * chunk_cycles)) * t.slots) + slot)

  (* Adds [delta] to cell [i = cycle * slots + slot], in a reached chunk. *)
  let add t i delta =
    let cells = chunk_cycles * t.slots in
    let chunk = t.chunks.(i / cells) and j = i mod cells in
    Bytes.set_uint8 chunk j (Bytes.get_uint8 chunk j + delta)

  (* Returns the cell it incremented, for the undo log. *)
  let bump t ~cycle slot =
    let k = cycle / chunk_cycles in
    let reached = Array.length t.chunks in
    if k >= reached then begin
      let chunks = Array.make (max (2 * reached) (k + 1)) Bytes.empty in
      Array.blit t.chunks 0 chunks 0 reached;
      t.chunks <- chunks
    end;
    if Bytes.length t.chunks.(k) = 0 then
      t.chunks.(k) <- Bytes.make (chunk_cycles * t.slots) '\000';
    let i = (cycle * t.slots) + slot in
    add t i 1;
    i

  let unbump t i = add t i (-1)
end

(* Register banks. An operand occupies its register from its move cycle
   through the execute cycle of its level. Levels are placed at increasing
   cycles, so every earlier occupation starts before the level being
   placed executes, and a register is free for a move at cycle [lo]
   exactly when the last operand it held executed before [lo]. *)
module Regs = struct
  type t = { banks : int; regs_per_bank : int; busy_until : int array }

  let create (tile : Arch.tile) =
    let banks = tile.Arch.banks_per_pp and regs_per_bank = tile.Arch.regs_per_bank in
    { banks; regs_per_bank;
      busy_until = Array.make (tile.Arch.alu_count * banks * regs_per_bank) (-1) }

  let slot t ~pp ~bank index = (((pp * t.banks) + bank) * t.regs_per_bank) + index

  let rec free_from t base lo index =
    if index >= t.regs_per_bank then -1
    else if t.busy_until.(base + index) >= lo then free_from t base lo (index + 1)
    else index

  (* The lowest register of the bank free for a move at [lo], or -1. *)
  let free_index t ~pp ~bank ~lo = free_from t (slot t ~pp ~bank 0) lo 0
end

(* ------------------------------------------------------------------ *)

(* Per-run state. What depends only on the graph and its clustering
   (versions, cluster index, root externals) lives on the clustering and
   is shared by every tile point; everything here is dense and indexed by
   node id, cluster id or memory slot. *)
type state = {
  tile : Arch.tile;
  options : options;
  graph : G.t;
  sched : Sched.t;
  clustering : Cluster.t;
  cluster_of : int array;
  versions : Legalize.versions;
  alu_levels : int list array;  (* level -> its ALU-using cids *)
  pp_of : int array;
  (* resources *)
  bus : Usage.t;  (* cycle -> transfers *)
  read_port : Usage.t;  (* (cycle, memory slot) -> reads *)
  write_port : Usage.t;
  bank_write : Usage.t;
      (* (cycle, pp * banks + bank) -> register-bank writes; one port per
         bank *)
  regs : Regs.t;
  last_write : int array array;
      (* memory slot -> address -> cycle of the word's last write, -1 when
         never written; each grown on demand *)
  (* placement *)
  mutable homes : (string * Job.mem_loc list) list;
  mutable sizes : (string * int) list;
  next_free : int array;  (* memory slot -> next address *)
  cell : Job.mem_loc array;
      (* node id -> the word an access reads or writes: its home cell, or
         a fetch's preservation copy once one is made; [no_cell] until
         first asked *)
  preserved : int array;
      (* fetch -> first cycle its preservation copy is readable, -1 *)
  commit : int array;  (* St/Del node -> commit cycle, -1 *)
  scratch : Job.mem_loc array;  (* cid -> scratch cell *)
  scratch_commit : int array;  (* cid -> scratch commit cycle, -1 *)
  (* output records *)
  mutable rec_moves : (int * Job.move) list;  (* (cycle, move) *)
  mutable rec_alu : (int * Job.alu_work) list;  (* (exec cycle, work) *)
  mutable rec_deletes : (int * Job.delete_work) list;
  forwards : (int * Job.reg) list array;
      (* producer cid -> extra register destinations *)
  exec_of_level : int array;
  exec_of_cluster : int array;
  mutable rec_copies : (int * Job.copy) list;
}

let no_cell = { Job.mpp = -1; mem = -1; addr = -1 }

let memory_slot st pp mem = (pp * st.tile.Arch.memories_per_pp) + mem
let bank_slot st pp bank = (pp * st.tile.Arch.banks_per_pp) + bank

let last_write st (cell : Job.mem_loc) =
  let words = st.last_write.(memory_slot st cell.Job.mpp cell.Job.mem) in
  if cell.Job.addr < Array.length words then words.(cell.Job.addr) else -1

let set_last_write st (cell : Job.mem_loc) cycle =
  let slot = memory_slot st cell.Job.mpp cell.Job.mem in
  let words = st.last_write.(slot) in
  let words =
    if cell.Job.addr < Array.length words then words
    else begin
      let grown =
        Array.make (max (2 * Array.length words) (cell.Job.addr + 1)) (-1)
      in
      Array.blit words 0 grown 0 (Array.length words);
      st.last_write.(slot) <- grown;
      grown
    end
  in
  words.(cell.Job.addr) <- cycle

(* --------------------------- region homes -------------------------- *)

(* The least-used memory slot of [pp] (the lower one on a tie) when
   [words] more fit in it, else -1: if the least-used one is too full,
   so is every other. *)
let roomiest st pp words =
  let best = ref (memory_slot st pp 0) in
  for mem = 1 to st.tile.Arch.memories_per_pp - 1 do
    let slot = memory_slot st pp mem in
    if st.next_free.(slot) < st.next_free.(!best) then best := slot
  done;
  if st.next_free.(!best) + words <= st.tile.Arch.memory_size then !best else -1

let take st slot words =
  let addr = st.next_free.(slot) in
  st.next_free.(slot) <- addr + words;
  let mems = st.tile.Arch.memories_per_pp in
  { Job.mpp = slot / mems; mem = slot mod mems; addr }

(* The PPs after the preferred one, in index order. *)
let rec alloc_elsewhere st ~preferred_pp words pp =
  if pp >= st.tile.Arch.alu_count then
    errorf "no tile memory can hold %d more words" words
  else
    let slot = if pp = preferred_pp then -1 else roomiest st pp words in
    if slot >= 0 then take st slot words
    else alloc_elsewhere st ~preferred_pp words (pp + 1)

let alloc_words st ~preferred_pp words =
  let slot = roomiest st preferred_pp words in
  if slot >= 0 then take st slot words
  else alloc_elsewhere st ~preferred_pp words 0

let assign_homes st =
  let g = st.graph in
  (* Regions in order of first store, then first fetch, by allocation order
     of clusters; locality picks the touching cluster's PP. *)
  let first_touch = Hashtbl.create 16 in
  let touch region pp =
    if not (Hashtbl.mem first_touch region) then Hashtbl.replace first_touch region pp
  in
  Array.iter
    (fun level_cids ->
      List.iter
        (fun cid ->
          let c = st.clustering.Cluster.clusters.(cid) in
          let pp = st.pp_of.(cid) in
          List.iter
            (fun stn ->
              match G.kind g stn with
              | G.St r -> touch r pp
              | _ -> ())
            c.Cluster.stores;
          List.iter
            (fun del ->
              match G.kind g del with
              | G.Del r -> touch r pp
              | _ -> ())
            c.Cluster.deletes;
          List.iter
            (fun input ->
              match G.kind g input with
              | G.Fe r -> touch r pp
              | _ -> ())
            c.Cluster.cinputs)
        level_cids)
    st.sched.Sched.levels;
  let counter = ref 0 in
  List.iter
    (fun (region, info) ->
      (* its declared size, else one past the highest offset accessed *)
      let words =
        match info.G.size with
        | Some size -> size
        | None -> max 1 (Legalize.max_offset st.versions region + 1)
      in
      let preferred_pp =
        if st.options.locality then
          match Hashtbl.find_opt first_touch region with
          | Some pp when pp >= 0 -> pp
          | Some _ | None ->
            let pp = !counter mod st.tile.Arch.alu_count in
            incr counter;
            pp
        else begin
          let pp = !counter mod st.tile.Arch.alu_count in
          incr counter;
          pp
        end
      in
      (* Interleaving splits a region over the PP's memories: cell i lives
         in slice (i mod K) at address i/K, doubling the read bandwidth of
         hot arrays (the tile has one read port per memory). *)
      let k =
        if st.options.interleave && words >= 4 then
          min st.tile.Arch.memories_per_pp 2
        else 1
      in
      let slice_words = (words + k - 1) / k in
      let slices =
        List.init k (fun (_ : int) -> alloc_words st ~preferred_pp slice_words)
      in
      st.homes <- (region, slices) :: st.homes;
      st.sizes <- (region, words) :: st.sizes)
    (G.regions g);
  st.homes <- List.sort compare st.homes;
  st.sizes <- List.sort compare st.sizes

(* The home cell of access [id] to [region], computed once per run. *)
let home_cell st id region =
  let cell = st.cell.(id) in
  if cell != no_cell then cell
  else begin
    let cell =
      match List.assoc_opt region st.homes with
      | Some slices -> Job.interleaved_cell slices (Legalize.offset st.versions id)
      | None -> errorf "region %s has no home" region
    in
    st.cell.(id) <- cell;
    cell
  end

(* ------------------------ value source lookup ---------------------- *)

type source =
  | Immediate of int
  | In_memory of Job.mem_loc * int * int
      (** cell, first readable cycle, last readable cycle (the value may be
          overwritten by an already-committed write-back after that) *)

(* Which memory word carries the value of [input], and from which cycle it
   is readable. *)
let source_of st input =
  let g = st.graph in
  match G.kind g input with
  | G.Const c -> Immediate c
  | G.Binop _ | G.Unop _ | G.Mux ->
    let cid = st.cluster_of.(input) in
    if cid < 0 then errorf "value node %d is unclustered" input;
    let wb = st.scratch_commit.(cid) in
    if wb < 0 then errorf "cluster %d produced no scratch word for node %d" cid input;
    (* scratch words are single-assignment: no deadline *)
    In_memory (st.scratch.(cid), wb + 1, max_int)
  | G.Fe _ when st.preserved.(input) >= 0 ->
    In_memory (st.cell.(input), st.preserved.(input), max_int)
  | G.Fe region -> (
    let cell = home_cell st input region in
    (* The cell becomes unreadable once an already-committed overwriting
       write-back lands: the move must happen no later than that cycle
       (reads precede the end-of-cycle write commit). An overwriter not yet
       allocated executes at a later level and cannot land before this
       level's moves. *)
    let deadline =
      match Legalize.overwriter st.versions input with
      | Some d when st.commit.(d) >= 0 -> st.commit.(d)
      | Some _ | None -> max_int
    in
    (* The version the fetch reads. *)
    match Legalize.latest_version st.versions input with
    | None -> In_memory (cell, 0, deadline)
    | Some m -> (
      match G.kind g m with
      | G.St _ ->
        let wb = st.commit.(m) in
        if wb < 0 then
          errorf "fetch %d reads store %d that is not yet allocated" input m;
        In_memory (cell, wb + 1, deadline)
      | _ -> errorf "fetch %d reads a deleted tuple" input))
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
    errorf "node %d cannot be a cluster operand" input

(* --------------------------- micro-ops ----------------------------- *)

let micros_of_cluster st (c : Cluster.cluster) =
  let g = st.graph in
  let ports = List.mapi (fun i input -> (input, i)) c.Cluster.cinputs in
  (* An op's operand is a member exactly when the index lists it under
     this cluster: operands are values, never the cluster's St/Del. *)
  let arg_of input =
    if st.cluster_of.(input) = c.Cluster.cid then Job.Node input
    else
      match List.assoc_opt input ports with
      | Some p -> Job.Port p
      | None -> errorf "operand %d of cluster %d is not a port" input c.Cluster.cid
  in
  match c.Cluster.ops with
  | [] -> (
    match c.Cluster.root with
    | Some src -> [ { Job.node = src; action = Job.Pass; args = [ arg_of src ] } ]
    | None -> [])
  | ops ->
    List.map
      (fun op ->
        let args = List.map arg_of (G.inputs g op) in
        let action =
          match G.kind g op with
          | G.Binop b -> Job.Bin b
          | G.Unop u -> Job.Un u
          | G.Mux -> Job.Mux3
          | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
            errorf "non-value op %d inside cluster %d" op c.Cluster.cid
        in
        { Job.node = op; action; args })
      ops

(* ------------------------------ planning --------------------------- *)

type undo =
  | Use of Usage.t * int  (* cell incremented *)
  | Reg of int * int  (* register slot, its previous [busy_until] *)

type plan = {
  mutable undo : undo list;  (* reservations made, newest first *)
  mutable p_regs : int;  (* registers reserved *)
  mutable p_moves : (int * Job.move) list;
  mutable p_forwards : (int * (int * Job.reg)) list;  (* producer cid, dest *)
  mutable p_port_regs : (int * (int * Job.reg)) list;
      (* consumer cid, (port, register) *)
}

let new_plan () =
  { undo = []; p_regs = 0; p_moves = []; p_forwards = []; p_port_regs = [] }

let reserve plan usage ~cycle slot =
  plan.undo <- Use (usage, Usage.bump usage ~cycle slot) :: plan.undo

let reserve_reg st plan ~pp ~bank index ~until =
  let slot = Regs.slot st.regs ~pp ~bank index in
  plan.undo <- Reg (slot, st.regs.Regs.busy_until.(slot)) :: plan.undo;
  st.regs.Regs.busy_until.(slot) <- until;
  plan.p_regs <- plan.p_regs + 1

let rollback st plan =
  List.iter
    (function
      | Use (usage, i) -> Usage.unbump usage i
      | Reg (slot, until) -> st.regs.Regs.busy_until.(slot) <- until)
    plan.undo

let bus_free st cycle = Usage.get st.bus ~cycle 0 < st.tile.Arch.buses

(* Each register bank has a single write port (paper VI-C lists it among
   the allocation challenges). *)
let bank_write_free st cycle ~pp ~bank =
  Usage.get st.bank_write ~cycle (bank_slot st pp bank) < 1

(* Extension: the cluster producing [input] writes it straight into the
   consumer's register at its own execute cycle. *)
let try_forward st plan ~exec ~pp ~port ~cluster input =
  st.options.forwarding
  &&
  match G.kind st.graph input with
  | G.Binop _ | G.Unop _ | G.Mux ->
    let pcid = st.cluster_of.(input) in
    let t_p = st.exec_of_cluster.(pcid) in
    t_p >= 0
    && exec - t_p >= 1
    && exec - t_p <= st.tile.Arch.move_window
    && bus_free st t_p
    && bank_write_free st t_p ~pp ~bank:port
    &&
    let index = Regs.free_index st.regs ~pp ~bank:port ~lo:t_p in
    index >= 0
    && begin
         let reg = { Job.pp; bank = port; index } in
         reserve plan st.bus ~cycle:t_p 0;
         reserve plan st.bank_write ~cycle:t_p (bank_slot st pp port);
         reserve_reg st plan ~pp ~bank:port index ~until:exec;
         plan.p_forwards <- (pcid, (t_p, reg)) :: plan.p_forwards;
         plan.p_port_regs <- (cluster, (port, reg)) :: plan.p_port_regs;
         true
       end
  | _ -> false

(* A move of [input] from [src] at cycle [u] into bank [port] of [pp],
   reserved when the bus, [src]'s read port, the bank's write port and one
   of its registers are free then. *)
let try_move_at st plan ~exec ~pp ~port ~cluster input src u =
  let read_slot = memory_slot st src.Job.mpp src.Job.mem in
  bus_free st u
  && Usage.get st.read_port ~cycle:u read_slot < 1
  && bank_write_free st u ~pp ~bank:port
  &&
  let index = Regs.free_index st.regs ~pp ~bank:port ~lo:u in
  index >= 0
  && begin
       let reg = { Job.pp; bank = port; index } in
       reserve plan st.bus ~cycle:u 0;
       reserve plan st.read_port ~cycle:u read_slot;
       reserve plan st.bank_write ~cycle:u (bank_slot st pp port);
       reserve_reg st plan ~pp ~bank:port index ~until:exec;
       plan.p_moves <-
         (u, { Job.src; dst = reg; carried = input; for_cluster = cluster })
         :: plan.p_moves;
       plan.p_port_regs <- (cluster, (port, reg)) :: plan.p_port_regs;
       true
     end

let rec upwards st plan ~exec ~pp ~port ~cluster input src u last =
  u <= last
  && (try_move_at st plan ~exec ~pp ~port ~cluster input src u
     || upwards st plan ~exec ~pp ~port ~cluster input src (u + 1) last)

let rec downwards st plan ~exec ~pp ~port ~cluster input src u last =
  u >= last
  && (try_move_at st plan ~exec ~pp ~port ~cluster input src u
     || downwards st plan ~exec ~pp ~port ~cluster input src (u - 1) last)

(* Finds a register move for one operand of a cluster executing at [exec]
   on [pp], bank [port]. Paper order: window steps before first, then
   closer. Returns false when no cycle in the window works. *)
let plan_operand st plan ~exec ~pp ~port ~cluster input =
  match source_of st input with
  | Immediate _ -> true
  | In_memory (src, avail, deadline) ->
    try_forward st plan ~exec ~pp ~port ~cluster input
    ||
    let window = st.tile.Arch.move_window in
    (* Feasible move cycles: the value is readable and not yet
       overwritten, and the move precedes the execute cycle. *)
    let lo = max 0 avail and hi = min (exec - 1) deadline in
    (* Candidate move cycles, in preference order:
       1. the paper's window (4, 3, 2, 1 steps before the execute cycle);
       2. widening: up to 64 progressively earlier cycles — these are the
          "inserted clock cycles before the current one" of Fig. 5, with
          registers simply holding their operand longer;
       3. when an already-committed overwrite imposes a deadline earlier
          than the window, up to 64 cycles just before the deadline.
       All bounded so allocation stays linear. *)
    upwards st plan ~exec ~pp ~port ~cluster input src (max lo (exec - window)) hi
    || downwards st plan ~exec ~pp ~port ~cluster input src
         (min hi (exec - window - 1))
         (max lo (exec - window - 64))
    || hi < exec - window
       && downwards st plan ~exec ~pp ~port ~cluster input src hi
            (max lo (hi - 63))

(* The cluster of the first future reader of fetch [fe]: among its
   consumers in clusters at levels after [level], the first in
   descending (consumer, port) order, that is the last one the ascending
   use index yields; -1 when there is none. *)
let future_reader st fe ~level =
  let reader = ref (-1) in
  G.iter_consumers st.graph fe (fun user _ ->
      let cid = st.cluster_of.(user) in
      if cid >= 0 && st.sched.Sched.level_of.(cid) > level then reader := cid);
  !reader

(* The first cycle from [p] at which [cell] can be read and [scratch]
   written over a free bus lane. *)
let rec copy_cycle st ~bound cell scratch p =
  if p > bound then errorf "preservation copy search exceeded bound";
  let read_slot = memory_slot st cell.Job.mpp cell.Job.mem in
  let write_slot = memory_slot st scratch.Job.mpp scratch.Job.mem in
  if
    Usage.get st.read_port ~cycle:p read_slot < 1
    && Usage.get st.write_port ~cycle:p write_slot < 1
    && bus_free st p
  then begin
    ignore (Usage.bump st.read_port ~cycle:p read_slot);
    ignore (Usage.bump st.write_port ~cycle:p write_slot);
    ignore (Usage.bump st.bus ~cycle:p 0);
    set_last_write st scratch p;
    p
  end
  else copy_cycle st ~bound cell scratch (p + 1)

(* Copies the current word of [cell] to a fresh scratch cell before it is
   overwritten, for every fetch of the old value whose consumers sit at
   levels that are not yet allocated. Returns the earliest cycle at which
   the overwrite may commit (no earlier than any preservation read). *)
let preserve_endangered st ~exec mutator cell =
  match Legalize.destroyed_by st.versions mutator with
  | [] -> exec
  | fes ->
    let level =
      let cid = st.cluster_of.(mutator) in
      if cid >= 0 then st.sched.Sched.level_of.(cid) else 0
    in
    List.fold_left
      (fun earliest fe ->
        if st.preserved.(fe) >= 0 then max earliest st.preserved.(fe)
        else begin
          let reader = future_reader st fe ~level in
          if reader < 0 then earliest
          else begin
            (* Park the old word near its first future reader. *)
            let scratch = alloc_words st ~preferred_pp:st.pp_of.(reader) 1 in
            let floor = last_write st cell + 1 in
            let p = copy_cycle st ~bound:(floor + 1000) cell scratch floor in
            st.preserved.(fe) <- p + 1;
            st.cell.(fe) <- scratch;
            st.rec_copies <-
              (p, { Job.csrc = cell; cdst = scratch; kept = fe })
              :: st.rec_copies;
            (* the overwrite must not land before the copy has read *)
            max earliest p
          end
        end)
      exec fes

(* The first cycle from [cycle] at which memory write port [port] is free,
   and (for a write-back, which crosses the crossbar) a bus lane too. *)
let rec write_cycle st ~bound ~bus ~what port cycle =
  if cycle > bound then errorf "%s search exceeded bound" what;
  if
    Usage.get st.write_port ~cycle port < 1
    && ((not bus) || bus_free st cycle)
  then cycle
  else write_cycle st ~bound ~bus ~what port (cycle + 1)

(* Schedules a memory write at the earliest cycle >= [earliest] with a free
   write port and bus, preserving per-cell write order. Commits directly
   (write-backs never fail, so they need no rollback). *)
let commit_write st ~earliest (cell : Job.mem_loc) =
  let floor = max earliest (last_write st cell + 1) in
  let port = memory_slot st cell.Job.mpp cell.Job.mem in
  let cycle =
    write_cycle st ~bound:(floor + 1000) ~bus:true ~what:"write-back" port floor
  in
  ignore (Usage.bump st.write_port ~cycle port);
  ignore (Usage.bump st.bus ~cycle 0);
  set_last_write st cell cycle;
  cycle

let commit_delete st ~earliest (cell : Job.mem_loc) =
  let floor = max earliest (last_write st cell + 1) in
  let port = memory_slot st cell.Job.mpp cell.Job.mem in
  let cycle =
    write_cycle st ~bound:(floor + 1000) ~bus:false ~what:"delete" port floor
  in
  ignore (Usage.bump st.write_port ~cycle port);
  set_last_write st cell cycle;
  cycle

(* --------------------------- level placement ----------------------- *)

let rec plan_operands st plan ~exec ~pp ~cluster port = function
  | [] -> true
  | input :: rest ->
    (match G.kind st.graph input with
    | G.Const _ -> true
    | _ -> plan_operand st plan ~exec ~pp ~port ~cluster input)
    && plan_operands st plan ~exec ~pp ~cluster (port + 1) rest

(* Plans the operand moves of a level executing at [exec], reserving as it
   goes; a failed attempt is rolled back. *)
let try_level st ~exec level =
  let plan = new_plan () in
  let ok =
    List.for_all
      (fun cid ->
        plan_operands st plan ~exec ~pp:st.pp_of.(cid) ~cluster:cid 0
          st.clustering.Cluster.clusters.(cid).Cluster.cinputs)
      st.alu_levels.(level)
  in
  if ok then Some plan
  else begin
    rollback st plan;
    None
  end

let commit_level st ~exec ~level level_cids plan =
  let g = st.graph in
  Obs.add c_reg_hits plan.p_regs;
  st.rec_moves <- plan.p_moves @ st.rec_moves;
  List.iter
    (fun (pcid, dest) -> st.forwards.(pcid) <- dest :: st.forwards.(pcid))
    plan.p_forwards;
  st.exec_of_level.(level) <- exec;
  List.iter
    (fun cid ->
      let c = st.clustering.Cluster.clusters.(cid) in
      st.exec_of_cluster.(cid) <- exec;
      if Sched.uses_alu c then begin
        let pp = st.pp_of.(cid) in
        (* write-backs: statespace stores + scratch spill *)
        let writes =
          List.map
            (fun stn ->
              match G.kind g stn with
              | G.St region ->
                let cell = home_cell st stn region in
                let earliest = preserve_endangered st ~exec stn cell in
                let wcycle = commit_write st ~earliest cell in
                st.commit.(stn) <- wcycle;
                { Job.target = cell; wcycle; source_store = Some stn }
              | _ -> errorf "cluster %d has a non-store write-back" cid)
            c.Cluster.stores
        in
        let writes =
          if st.clustering.Cluster.root_external.(cid) then begin
            let scratch = alloc_words st ~preferred_pp:pp 1 in
            let wcycle = commit_write st ~earliest:exec scratch in
            st.scratch.(cid) <- scratch;
            st.scratch_commit.(cid) <- wcycle;
            { Job.target = scratch; wcycle; source_store = None } :: writes
          end
          else writes
        in
        let port_regs =
          List.filter_map
            (fun (consumer, port_reg) ->
              if consumer = cid then Some port_reg else None)
            plan.p_port_regs
          |> List.sort compare
        in
        let port_imms =
          List.mapi (fun i input -> (i, input)) c.Cluster.cinputs
          |> List.filter_map (fun (i, input) ->
                 match G.kind g input with
                 | G.Const v -> Some (i, v)
                 | _ -> None)
        in
        let work =
          {
            Job.wcluster = cid;
            wpp = pp;
            port_regs;
            port_imms;
            micros = micros_of_cluster st c;
            writes;
            reg_dests = [];
          }
        in
        st.rec_alu <- (exec, work) :: st.rec_alu
      end;
      (* deletes (memory-only or attached) *)
      List.iter
        (fun del ->
          match G.kind g del with
          | G.Del region ->
            let cell = home_cell st del region in
            let earliest = preserve_endangered st ~exec del cell in
            let dcycle = commit_delete st ~earliest cell in
            st.commit.(del) <- dcycle;
            st.rec_deletes <-
              (dcycle, { Job.dcluster = cid; dloc = cell; dcycle })
              :: st.rec_deletes
          | _ -> errorf "cluster %d has a non-delete delete" cid)
        c.Cluster.deletes)
    level_cids

(* ------------------------------- driver ---------------------------- *)

let assign_pps st =
  Array.iter
    (List.iteri (fun position cid -> st.pp_of.(cid) <- position))
    st.alu_levels

let assign_delete_pps st =
  Array.iter
    (fun (c : Cluster.cluster) ->
      if not (Sched.uses_alu c) then
        match c.Cluster.deletes with
        | del :: _ -> (
          match G.kind st.graph del with
          | G.Del region -> (
            match List.assoc_opt region st.homes with
            | Some (home :: _) -> st.pp_of.(c.Cluster.cid) <- home.Job.mpp
            | Some [] | None -> st.pp_of.(c.Cluster.cid) <- 0)
          | _ -> ())
        | [] -> ())
    st.clustering.Cluster.clusters

let run ?(options = default_options) ~tile (sched : Sched.t) =
  Arch.validate tile;
  let clustering = sched.Sched.clustering in
  let g = clustering.Cluster.graph in
  let clusters = clustering.Cluster.clusters in
  let n = Array.length clusters in
  let ids = G.id_bound g in
  let memories = tile.Arch.alu_count * tile.Arch.memories_per_pp in
  let st =
    {
      tile;
      options;
      graph = g;
      sched;
      clustering;
      cluster_of = clustering.Cluster.cluster_of;
      versions = clustering.Cluster.versions;
      alu_levels =
        Array.map
          (List.filter (fun cid -> Sched.uses_alu clusters.(cid)))
          sched.Sched.levels;
      pp_of = Array.make n 0;
      bus = Usage.create 1;
      read_port = Usage.create memories;
      write_port = Usage.create memories;
      bank_write =
        Usage.create (tile.Arch.alu_count * tile.Arch.banks_per_pp);
      regs = Regs.create tile;
      last_write = Array.make memories [||];
      homes = [];
      sizes = [];
      next_free = Array.make memories 0;
      cell = Array.make ids no_cell;
      preserved = Array.make ids (-1);
      commit = Array.make ids (-1);
      scratch = Array.make n no_cell;
      scratch_commit = Array.make n (-1);
      rec_moves = [];
      rec_alu = [];
      rec_deletes = [];
      forwards = Array.make n [];
      exec_of_level = Array.make (Sched.level_count sched) (-1);
      exec_of_cluster = Array.make n (-1);
      rec_copies = [];
    }
  in
  assign_pps st;
  assign_homes st;
  assign_delete_pps st;
  let prev_exec = ref (-1) in
  Array.iteri
    (fun level level_cids ->
      let first_try = !prev_exec + 1 in
      let rec attempt exec =
        if exec > !prev_exec + 1 + 200 then
          errorf "level %d cannot be placed (inserted more than 200 cycles)"
            level;
        match try_level st ~exec level with
        | Some plan ->
          commit_level st ~exec ~level level_cids plan;
          Obs.add c_inserted (exec - first_try);
          prev_exec := exec
        | None ->
          Obs.incr c_retries;
          attempt (exec + 1)
      in
      (* The first level can execute at cycle 0 only when it needs no
         operand moves; attempts start one past the previous level. *)
      attempt first_try)
    st.sched.Sched.levels;
  (* Patch forwards into the producing clusters' work records. *)
  let rec_alu =
    List.map
      (fun (cycle, work) ->
        match st.forwards.(work.Job.wcluster) with
        | [] -> (cycle, work)
        | dests -> (cycle, { work with Job.reg_dests = List.sort compare dests }))
      st.rec_alu
  in
  let max_cycle =
    List.fold_left
      (fun acc (cycle, work) ->
        List.fold_left
          (fun acc (w : Job.write) -> max acc w.Job.wcycle)
          (max acc cycle) work.Job.writes)
      0 rec_alu
  in
  let max_cycle =
    List.fold_left (fun acc (cycle, _) -> max acc cycle) max_cycle st.rec_moves
  in
  let max_cycle =
    List.fold_left (fun acc (cycle, _) -> max acc cycle) max_cycle st.rec_deletes
  in
  let max_cycle =
    List.fold_left (fun acc (cycle, _) -> max acc cycle) max_cycle st.rec_copies
  in
  let bucket records =
    let buckets = Array.make (max_cycle + 1) [] in
    List.iter
      (fun (cycle, item) -> buckets.(cycle) <- item :: buckets.(cycle))
      records;
    buckets
  in
  Obs.add c_moves (List.length st.rec_moves);
  Obs.add c_copies (List.length st.rec_copies);
  Obs.add c_forwards
    (Fpfa_util.Listx.sum
       (List.map
          (fun ((_ : int), (w : Job.alu_work)) -> List.length w.Job.reg_dests)
          rec_alu));
  let move_buckets = bucket (List.rev st.rec_moves) in
  let copy_buckets = bucket (List.rev st.rec_copies) in
  let alu_buckets = bucket (List.rev rec_alu) in
  let delete_buckets = bucket (List.rev st.rec_deletes) in
  let cycles =
    Array.init (max_cycle + 1) (fun i ->
        {
          Job.moves = List.rev move_buckets.(i);
          copies = List.rev copy_buckets.(i);
          alu = List.rev alu_buckets.(i);
          deletes = List.rev delete_buckets.(i);
        })
  in
  {
    Job.tile;
    graph = g;
    cycles;
    region_homes = st.homes;
    region_sizes = st.sizes;
    exec_cycle_of_level = st.exec_of_level;
  }
