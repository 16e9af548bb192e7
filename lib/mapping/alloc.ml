module G = Cdfg.Graph
module Arch = Fpfa_arch.Arch
module Obs = Fpfa_obs.Obs

(* Allocator tallies for `--stats` (inert until Obs.enable).
   "alloc.moves", "alloc.forwards" and "alloc.inserted_cycles" must
   reconcile with Mapping.Metrics on the mapped job; the test suite checks
   exactly that. "alloc.level_retries" counts the failed level attempts,
   which insert most cycles but not those before a level that needs no
   ALU or after the last level. *)
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
   one count per (cycle, slot) in one byte string, which doubles when a
   reservation reaches past its end. Counts are bytes, which the GC does
   not scan and which copy cheaply: a count never exceeds the resource's
   capacity (every reservation first checks for room), and a valid tile
   has at most 255 of anything ({!Arch.validate}). *)
module Usage = struct
  type t = { slots : int; mutable counts : Bytes.t }

  let create slots = { slots; counts = Bytes.empty }

  let get t ~cycle slot =
    let i = (cycle * t.slots) + slot in
    if i < Bytes.length t.counts then Bytes.get_uint8 t.counts i else 0

  let add t i delta = Bytes.set_uint8 t.counts i (Bytes.get_uint8 t.counts i + delta)

  (* Returns the cell it incremented, for the undo log. *)
  let bump t ~cycle slot =
    let i = (cycle * t.slots) + slot in
    let n = Bytes.length t.counts in
    if i >= n then begin
      let grown = Bytes.make (max (2 * n) (max 1024 (i + 1))) '\000' in
      Bytes.blit t.counts 0 grown 0 n;
      t.counts <- grown
    end;
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

  (* The same, for the bank whose first register is slot [base]. *)
  let free_at t ~base ~lo = free_from t base lo 0
end

(* Growable stacks. The undo log and the record of the level attempt
   under way live in a few of these per run, so an attempt that fails
   leaves nothing for the collector. *)
module Ints = struct
  type t = { mutable items : int array; mutable len : int }

  let create () = { items = Array.make 64 0; len = 0 }

  let push t x =
    if t.len = Array.length t.items then begin
      let grown = Array.make (2 * t.len) 0 in
      Array.blit t.items 0 grown 0 t.len;
      t.items <- grown
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1
end

let no_cell = { Job.mpp = -1; mem = -1; addr = -1 }

(* Grown around [no_cell], not the young [x]: the runtime empties the
   minor heap before it makes a long array around a young value. *)
module Cells = struct
  type t = { mutable items : Job.mem_loc array; mutable len : int }

  let create () = { items = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.items then begin
      let grown = Array.make (max 64 (2 * t.len)) no_cell in
      Array.blit t.items 0 grown 0 t.len;
      t.items <- grown
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1
end

(* Per-cycle lists of a job's records; the array grows by doubling as
   cycles are reached. *)
module Buckets = struct
  type 'a t = { mutable lists : 'a list array }

  let create () = { lists = Array.make 64 [] }

  let reach t cycle =
    let n = Array.length t.lists in
    if cycle >= n then begin
      let grown = Array.make (max (2 * n) (cycle + 1)) [] in
      Array.blit t.lists 0 grown 0 n;
      t.lists <- grown
    end

  let set t cycle l =
    reach t cycle;
    t.lists.(cycle) <- l

  let get t i = if i < Array.length t.lists then t.lists.(i) else []

  (* Records are [add]ed newest first and read back oldest first. *)
  let add t cycle x = set t cycle (x :: get t cycle)

  let oldest_first t i = match get t i with ([] | [ _ ]) as l -> l | l -> List.rev l
end

(* ------------------------------------------------------------------ *)

(* Per-run state. What depends only on the graph and its clustering
   (versions, cluster index, root externals, micro-ops, region touches)
   lives on the clustering and is shared by every tile point; everything
   here is dense and indexed by access, cluster id or memory slot. *)
type state = {
  tile : Arch.tile;
  options : options;
  graph : G.t;
  sched : Sched.t;
  clustering : Cluster.t;
  cluster_of : int array;
  versions : Legalize.versions;
  pp_of : int array;
  (* resources *)
  bus : Usage.t;  (* cycle -> transfers *)
  read_port : Usage.t;  (* (cycle, memory slot) -> reads *)
  write_port : Usage.t;
  bank_write : Usage.t;
      (* (cycle, pp * banks + bank) -> register-bank writes; one port per
         bank *)
  regs : Regs.t;
  reg_record : Job.reg array;  (* register slot -> the job's record of it *)
  last_write : int array array;
      (* memory slot -> address -> cycle of the word's last write, -1 when
         never written; each grown on demand *)
  (* placement *)
  mutable homes : (string * Job.mem_loc list) list;
  mutable sizes : (string * int) list;
  next_free : int array;  (* memory slot -> next address *)
  (* per access, by {!Legalize.access_index} *)
  cell : Job.mem_loc array;
      (* the word an access reads or writes: its home cell, or a fetch's
         preservation copy once one is made; [no_cell] until first asked *)
  preserved : int array;
      (* fetch -> first cycle its preservation copy is readable, -1 *)
  commit : int array;  (* St/Del -> commit cycle, -1 *)
  scratch : Job.mem_loc array;  (* cid -> scratch cell *)
  scratch_commit : int array;  (* cid -> scratch commit cycle, -1 *)
  (* the level attempt under way *)
  undo : Ints.t;
      (* reservations, oldest first: a resource cell as [cell * 4 + r]
         (r: 0 bus, 1 read port, 2 bank write port), or a register as its
         previous [busy_until] followed by [slot * 4 + 3] *)
  planned : Ints.t;
      (* operands placed, [plan_stride] ints each: 1 for a forward else 0,
         cycle, register slot, input node, consumer cid, port *)
  planned_src : Cells.t;  (* a planned move's source cell *)
  mutable src_cell : Job.mem_loc;
  mutable src_avail : int;
  mutable src_deadline : int;
      (* where [locate] found the operand it was asked for *)
  mutable op_input : int;
  mutable op_cluster : int;
  mutable op_port : int;
  mutable op_exec : int;
  mutable op_read_slot : int;  (* [src_cell]'s memory *)
  mutable op_bank_slot : int;  (* the consumer's bank, among all banks *)
  mutable op_reg_base : int;  (* that bank's first register slot *)
      (* the operand whose move cycles are being tried *)
  (* output records *)
  moves : Job.move Buckets.t;
  copies : Job.copy Buckets.t;
  alu : Job.alu_work Buckets.t;  (* exec cycle -> its level's work, in order *)
  deletes : Job.delete_work Buckets.t;
  mutable last_cycle : int;  (* the latest cycle any record occupies *)
  port_regs : (int * Job.reg) list array;
      (* cid -> its operand registers, while its level commits *)
  forwards : (int * Job.reg) list array;
      (* producer cid -> extra register destinations *)
  mutable forward_count : int;
  exec_of_level : int array;
  exec_of_cluster : int array;
}

let plan_stride = 6

let cell_of st id = st.cell.(Legalize.access_index st.versions id)
let preserved_from st id = st.preserved.(Legalize.access_index st.versions id)
let committed_at st id = st.commit.(Legalize.access_index st.versions id)
let no_reg = { Job.pp = -1; bank = -1; index = -1 }
let empty_cycle = { Job.moves = []; copies = []; alu = []; deletes = [] }

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

(* Marks each region in [touches] that no earlier cluster touched with
   [pp], the PP of the cluster touching it now. *)
let rec touch first_touch pp = function
  | [] -> ()
  | r :: rest ->
    if first_touch.(r) < 0 then first_touch.(r) <- pp;
    touch first_touch pp rest

let rec touch_level st first_touch = function
  | [] -> ()
  | cid :: rest ->
    touch first_touch st.pp_of.(cid) st.clustering.Cluster.region_touches.(cid);
    touch_level st first_touch rest

let assign_homes st =
  let g = st.graph in
  (* Regions in order of first store, then first fetch, by allocation order
     of clusters; locality picks the touching cluster's PP. *)
  let regions = G.regions g in
  let first_touch = Array.make (List.length regions) (-1) in
  Array.iter (touch_level st first_touch) st.sched.Sched.levels;
  let counter = ref 0 in
  List.iteri
    (fun i (region, info) ->
      (* its declared size, else one past the highest offset accessed *)
      let words =
        match info.G.size with
        | Some size -> size
        | None -> max 1 (Legalize.max_offset st.versions region + 1)
      in
      let preferred_pp =
        if st.options.locality && first_touch.(i) >= 0 then first_touch.(i)
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
    regions;
  st.homes <- List.sort compare st.homes;
  st.sizes <- List.sort compare st.sizes

(* The home cell of access [id] to [region], computed once per run. *)
let home_cell st id region =
  let a = Legalize.access_index st.versions id in
  let cell = st.cell.(a) in
  if cell != no_cell then cell
  else begin
    let cell =
      match List.assoc_opt region st.homes with
      | Some slices -> Job.interleaved_cell slices (Legalize.offset st.versions id)
      | None -> errorf "region %s has no home" region
    in
    st.cell.(a) <- cell;
    cell
  end

(* ------------------------ value source lookup ---------------------- *)

(* Which memory word carries the value of [input] and over which cycles
   it is readable: sets [src_cell], [src_avail] (the first readable
   cycle) and [src_deadline] (the last: an already-committed write-back
   may overwrite the value after it), and returns true; returns false for
   an immediate. *)
let found st cell avail deadline =
  st.src_cell <- cell;
  st.src_avail <- avail;
  st.src_deadline <- deadline;
  true

let locate st input =
  let g = st.graph in
  match G.kind g input with
  | G.Const _ -> false
  | G.Binop _ | G.Unop _ | G.Mux ->
    let cid = st.cluster_of.(input) in
    if cid < 0 then errorf "value node %d is unclustered" input;
    let wb = st.scratch_commit.(cid) in
    if wb < 0 then errorf "cluster %d produced no scratch word for node %d" cid input;
    (* scratch words are single-assignment: no deadline *)
    found st st.scratch.(cid) (wb + 1) max_int
  | G.Fe _ when preserved_from st input >= 0 ->
    found st (cell_of st input) (preserved_from st input) max_int
  | G.Fe region -> (
    let cell = home_cell st input region in
    (* The cell becomes unreadable once an already-committed overwriting
       write-back lands: the move must happen no later than that cycle
       (reads precede the end-of-cycle write commit). An overwriter not yet
       allocated executes at a later level and cannot land before this
       level's moves. *)
    let deadline =
      match Legalize.overwriter st.versions input with
      | Some d when committed_at st d >= 0 -> committed_at st d
      | Some _ | None -> max_int
    in
    (* The version the fetch reads. *)
    match Legalize.latest_version st.versions input with
    | None -> found st cell 0 deadline
    | Some m -> (
      match G.kind g m with
      | G.St _ ->
        let wb = committed_at st m in
        if wb < 0 then
          errorf "fetch %d reads store %d that is not yet allocated" input m;
        found st cell (wb + 1) deadline
      | _ -> errorf "fetch %d reads a deleted tuple" input))
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
    errorf "node %d cannot be a cluster operand" input

(* ------------------------------ planning --------------------------- *)

let bus_log = 0
let read_port_log = 1
let bank_write_log = 2
let reg_log = 3

let reserve st usage log ~cycle slot =
  Ints.push st.undo ((Usage.bump usage ~cycle slot * 4) + log)

let reserve_reg st slot ~until =
  Ints.push st.undo st.regs.Regs.busy_until.(slot);
  Ints.push st.undo ((slot * 4) + reg_log);
  st.regs.Regs.busy_until.(slot) <- until

(* Undoes the reservations below [top] in the log, newest first. *)
let rec rollback st top =
  if top > 0 then begin
    let log = st.undo.Ints.items in
    let entry = log.(top - 1) in
    let target = entry / 4 and kind = entry land 3 in
    if kind = reg_log then begin
      st.regs.Regs.busy_until.(target) <- log.(top - 2);
      rollback st (top - 2)
    end
    else begin
      Usage.unbump
        (if kind = bus_log then st.bus
         else if kind = read_port_log then st.read_port
         else st.bank_write)
        target;
      rollback st (top - 1)
    end
  end

let plan st ~forward ~cycle ~slot ~cluster ~port input src =
  let p = st.planned in
  Ints.push p (if forward then 1 else 0);
  Ints.push p cycle;
  Ints.push p slot;
  Ints.push p input;
  Ints.push p cluster;
  Ints.push p port;
  if not forward then Cells.push st.planned_src src

let bus_free st cycle = Usage.get st.bus ~cycle 0 < st.tile.Arch.buses

(* Each register bank has a single write port (paper VI-C lists it among
   the allocation challenges). *)
let bank_write_free st cycle ~pp ~bank =
  Usage.get st.bank_write ~cycle (bank_slot st pp bank) < 1

(* Extension: the cluster producing [input] writes it straight into the
   consumer's register at its own execute cycle. *)
let try_forward st ~exec ~pp ~port ~cluster input =
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
         let slot = Regs.slot st.regs ~pp ~bank:port index in
         reserve st st.bus bus_log ~cycle:t_p 0;
         reserve st st.bank_write bank_write_log ~cycle:t_p (bank_slot st pp port);
         reserve_reg st slot ~until:exec;
         plan st ~forward:true ~cycle:t_p ~slot ~cluster ~port input no_cell;
         true
       end
  | _ -> false

(* A move of the operand at cycle [u], reserved when the bus, the source
   memory's read port, the bank's write port and one of its registers
   are free then. *)
let try_move_at st u =
  bus_free st u
  && Usage.get st.read_port ~cycle:u st.op_read_slot < 1
  && Usage.get st.bank_write ~cycle:u st.op_bank_slot < 1
  &&
  let index = Regs.free_at st.regs ~base:st.op_reg_base ~lo:u in
  index >= 0
  && begin
       let slot = st.op_reg_base + index in
       reserve st st.bus bus_log ~cycle:u 0;
       reserve st st.read_port read_port_log ~cycle:u st.op_read_slot;
       reserve st st.bank_write bank_write_log ~cycle:u st.op_bank_slot;
       reserve_reg st slot ~until:st.op_exec;
       plan st ~forward:false ~cycle:u ~slot ~cluster:st.op_cluster ~port:st.op_port
         st.op_input st.src_cell;
       true
     end

let rec upwards st u last = u <= last && (try_move_at st u || upwards st (u + 1) last)
let rec downwards st u last = u >= last && (try_move_at st u || downwards st (u - 1) last)

(* Finds a register move for one operand of a cluster executing at [exec]
   on [pp], bank [port]. Paper order: window steps before first, then
   closer. Returns false when no cycle in the window works. *)
let plan_operand st ~exec ~pp ~port ~cluster input =
  (not (locate st input))
  || try_forward st ~exec ~pp ~port ~cluster input
  ||
  let src = st.src_cell in
  st.op_input <- input;
  st.op_cluster <- cluster;
  st.op_port <- port;
  st.op_exec <- exec;
  st.op_read_slot <- memory_slot st src.Job.mpp src.Job.mem;
  st.op_bank_slot <- bank_slot st pp port;
  st.op_reg_base <- Regs.slot st.regs ~pp ~bank:port 0;
  let window = st.tile.Arch.move_window in
  (* Feasible move cycles: the value is readable and not yet
     overwritten, and the move precedes the execute cycle. *)
  let lo = max 0 st.src_avail and hi = min (exec - 1) st.src_deadline in
  (* Candidate move cycles, in preference order:
     1. the paper's window (4, 3, 2, 1 steps before the execute cycle);
     2. widening: up to 64 progressively earlier cycles — these are the
        "inserted clock cycles before the current one" of Fig. 5, with
        registers simply holding their operand longer;
     3. when an already-committed overwrite imposes a deadline earlier
        than the window, up to 64 cycles just before the deadline.
     All bounded so allocation stays linear. *)
  upwards st (max lo (exec - window)) hi
  || downwards st (min hi (exec - window - 1)) (max lo (exec - window - 64))
  || (hi < exec - window && downwards st hi (max lo (hi - 63)))

(* ------------------------------ commits ---------------------------- *)

let record st buckets cycle item =
  Buckets.add buckets cycle item;
  if cycle > st.last_cycle then st.last_cycle <- cycle

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
        if preserved_from st fe >= 0 then max earliest (preserved_from st fe)
        else begin
          let reader = future_reader st fe ~level in
          if reader < 0 then earliest
          else begin
            (* Park the old word near its first future reader. *)
            let scratch = alloc_words st ~preferred_pp:st.pp_of.(reader) 1 in
            let floor = last_write st cell + 1 in
            let p = copy_cycle st ~bound:(floor + 1000) cell scratch floor in
            let a = Legalize.access_index st.versions fe in
            st.preserved.(a) <- p + 1;
            st.cell.(a) <- scratch;
            record st st.copies p { Job.csrc = cell; cdst = scratch; kept = fe };
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

let rec plan_operands st ~exec ~pp ~cluster port = function
  | [] -> true
  | input :: rest ->
    (match G.kind st.graph input with
    | G.Const _ -> true
    | _ -> plan_operand st ~exec ~pp ~port ~cluster input)
    && plan_operands st ~exec ~pp ~cluster (port + 1) rest

let rec plan_clusters st ~exec = function
  | [] -> true
  | cid :: rest ->
    let c = st.clustering.Cluster.clusters.(cid) in
    ((not (Sched.uses_alu c))
    || plan_operands st ~exec ~pp:st.pp_of.(cid) ~cluster:cid 0 c.Cluster.cinputs)
    && plan_clusters st ~exec rest

(* Plans the operand moves of a level executing at [exec], reserving as it
   goes; a failed attempt is rolled back. *)
let try_level st ~exec level_cids =
  st.undo.Ints.len <- 0;
  st.planned.Ints.len <- 0;
  st.planned_src.Cells.len <- 0;
  plan_clusters st ~exec level_cids
  || begin
       rollback st st.undo.Ints.len;
       false
     end

(* Records the attempt's moves and forwards, and files each planned
   register under its consumer in port order: a cluster's operands were
   planned together, ports ascending. *)
let commit_plan st =
  let p = st.planned.Ints.items and n = st.planned.Ints.len / plan_stride in
  Obs.add c_reg_hits n;
  let src = ref 0 in
  for i = 0 to n - 1 do
    let at = i * plan_stride in
    let cycle = p.(at + 1) and reg = st.reg_record.(p.(at + 2)) in
    if p.(at) = 1 then begin
      let pcid = st.cluster_of.(p.(at + 3)) in
      st.forwards.(pcid) <- (cycle, reg) :: st.forwards.(pcid);
      st.forward_count <- st.forward_count + 1
    end
    else begin
      record st st.moves cycle
        { Job.src = st.planned_src.Cells.items.(!src); dst = reg;
          carried = p.(at + 3); for_cluster = p.(at + 4) };
      incr src
    end
  done;
  for i = n - 1 downto 0 do
    let at = i * plan_stride in
    let cid = p.(at + 4) in
    st.port_regs.(cid) <- (p.(at + 5), st.reg_record.(p.(at + 2))) :: st.port_regs.(cid)
  done

(* The write-backs of a cluster's stores, in [stores] order. *)
let rec store_writes st ~exec ~cid = function
  | [] -> []
  | stn :: rest ->
    let write =
      match G.kind st.graph stn with
      | G.St region ->
        let cell = home_cell st stn region in
        let earliest = preserve_endangered st ~exec stn cell in
        let wcycle = commit_write st ~earliest cell in
        st.commit.(Legalize.access_index st.versions stn) <- wcycle;
        { Job.target = cell; wcycle; source_store = Some stn }
      | _ -> errorf "cluster %d has a non-store write-back" cid
    in
    write :: store_writes st ~exec ~cid rest

let rec note_writes st = function
  | [] -> ()
  | (w : Job.write) :: rest ->
    if w.Job.wcycle > st.last_cycle then st.last_cycle <- w.Job.wcycle;
    note_writes st rest

let commit_alu st ~exec cid (c : Cluster.cluster) =
  let pp = st.pp_of.(cid) in
  (* write-backs: statespace stores + scratch spill *)
  let writes = store_writes st ~exec ~cid c.Cluster.stores in
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
  let port_regs = st.port_regs.(cid) in
  st.port_regs.(cid) <- [];
  let micros =
    match st.clustering.Cluster.micros.(cid) with
    | Ok micros -> micros
    | Error msg -> raise (Allocation_error msg)
  in
  note_writes st writes;
  {
    Job.wcluster = cid;
    wpp = pp;
    port_regs;
    port_imms = st.clustering.Cluster.port_imms.(cid);
    micros;
    writes;
    reg_dests = [];
  }

(* Deletes, memory-only or attached. *)
let rec commit_deletes st ~exec ~cid = function
  | [] -> ()
  | del :: rest ->
    (match G.kind st.graph del with
    | G.Del region ->
      let cell = home_cell st del region in
      let earliest = preserve_endangered st ~exec del cell in
      let dcycle = commit_delete st ~earliest cell in
      st.commit.(Legalize.access_index st.versions del) <- dcycle;
      record st st.deletes dcycle { Job.dcluster = cid; dloc = cell; dcycle }
    | _ -> errorf "cluster %d has a non-delete delete" cid);
    commit_deletes st ~exec ~cid rest

(* Commits the level's clusters in order and returns their ALU work. *)
let rec commit_clusters st ~exec = function
  | [] -> []
  | cid :: rest ->
    let c = st.clustering.Cluster.clusters.(cid) in
    st.exec_of_cluster.(cid) <- exec;
    if Sched.uses_alu c then begin
      let work = commit_alu st ~exec cid c in
      commit_deletes st ~exec ~cid c.Cluster.deletes;
      work :: commit_clusters st ~exec rest
    end
    else begin
      commit_deletes st ~exec ~cid c.Cluster.deletes;
      commit_clusters st ~exec rest
    end

let commit_level st ~exec ~level level_cids =
  commit_plan st;
  st.exec_of_level.(level) <- exec;
  match commit_clusters st ~exec level_cids with
  | [] -> ()
  | works ->
    Buckets.set st.alu exec works;
    if exec > st.last_cycle then st.last_cycle <- exec

(* Places a level at the first cycle from [exec] where all its operands
   can be moved in, and returns that cycle. Attempts start one past the
   previous level's cycle, [first_try]: the first level can execute at
   cycle 0 only when it needs no operand moves. *)
let rec place_level st ~level ~first_try level_cids exec =
  if exec > first_try + 200 then
    errorf "level %d cannot be placed (inserted more than 200 cycles)" level;
  if try_level st ~exec level_cids then begin
    commit_level st ~exec ~level level_cids;
    exec
  end
  else begin
    Obs.incr c_retries;
    place_level st ~level ~first_try level_cids (exec + 1)
  end

(* ------------------------------- driver ---------------------------- *)

(* A level's ALU clusters take its PPs in placement order. *)
let rec assign_pps st position = function
  | [] -> ()
  | cid :: rest ->
    if Sched.uses_alu st.clustering.Cluster.clusters.(cid) then begin
      st.pp_of.(cid) <- position;
      assign_pps st (position + 1) rest
    end
    else assign_pps st position rest

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

(* Forwarded destinations join their producer's work record once every
   level is placed. *)
let with_forwards st (work : Job.alu_work) =
  match st.forwards.(work.Job.wcluster) with
  | [] -> work
  | dests ->
    let by_cycle_then_register (c1, (r1 : Job.reg)) (c2, (r2 : Job.reg)) =
      match Int.compare c1 c2 with
      | 0 -> (
        match Int.compare r1.Job.pp r2.Job.pp with
        | 0 -> (
          match Int.compare r1.Job.bank r2.Job.bank with
          | 0 -> Int.compare r1.Job.index r2.Job.index
          | c -> c)
        | c -> c)
      | c -> c
    in
    { work with Job.reg_dests = List.sort by_cycle_then_register dests }

let run ?(options = default_options) ~tile (sched : Sched.t) =
  Arch.validate tile;
  let clustering = sched.Sched.clustering in
  let g = clustering.Cluster.graph in
  let n = Array.length clustering.Cluster.clusters in
  let accesses = Legalize.access_count clustering.Cluster.versions in
  let memories = tile.Arch.alu_count * tile.Arch.memories_per_pp in
  let regs = Regs.create tile in
  let st =
    {
      tile;
      options;
      graph = g;
      sched;
      clustering;
      cluster_of = clustering.Cluster.cluster_of;
      versions = clustering.Cluster.versions;
      pp_of = Array.make n 0;
      bus = Usage.create 1;
      read_port = Usage.create memories;
      write_port = Usage.create memories;
      bank_write =
        Usage.create (tile.Arch.alu_count * tile.Arch.banks_per_pp);
      regs;
      reg_record = Array.make (Array.length regs.Regs.busy_until) no_reg;
      last_write = Array.make memories [||];
      homes = [];
      sizes = [];
      next_free = Array.make memories 0;
      cell = Array.make accesses no_cell;
      preserved = Array.make accesses (-1);
      commit = Array.make accesses (-1);
      scratch = Array.make n no_cell;
      scratch_commit = Array.make n (-1);
      undo = Ints.create ();
      planned = Ints.create ();
      planned_src = Cells.create ();
      src_cell = no_cell;
      src_avail = 0;
      src_deadline = 0;
      op_input = 0;
      op_cluster = 0;
      op_port = 0;
      op_exec = 0;
      op_read_slot = 0;
      op_bank_slot = 0;
      op_reg_base = 0;
      moves = Buckets.create ();
      copies = Buckets.create ();
      alu = Buckets.create ();
      deletes = Buckets.create ();
      last_cycle = 0;
      port_regs = Array.make n [];
      forwards = Array.make n [];
      forward_count = 0;
      exec_of_level = Array.make (Sched.level_count sched) (-1);
      exec_of_cluster = Array.make n (-1);
    }
  in
  Array.iteri
    (fun slot (_ : Job.reg) ->
      st.reg_record.(slot) <-
        {
          Job.pp = slot / (regs.Regs.banks * regs.Regs.regs_per_bank);
          bank = slot / regs.Regs.regs_per_bank mod regs.Regs.banks;
          index = slot mod regs.Regs.regs_per_bank;
        })
    st.reg_record;
  Array.iter (assign_pps st 0) sched.Sched.levels;
  assign_homes st;
  assign_delete_pps st;
  let prev_exec = ref (-1) in
  Array.iteri
    (fun level level_cids ->
      let first_try = !prev_exec + 1 in
      prev_exec := place_level st ~level ~first_try level_cids first_try)
    st.sched.Sched.levels;
  let moves = ref 0 and copies = ref 0 and exec_cycles = ref 0 in
  (* Filled in place, not by [Array.init]: a long array made around a
     young value makes the runtime empty the minor heap first, which
     promoted every job while it was still being built. *)
  let cycles = Array.make (st.last_cycle + 1) empty_cycle in
  for i = 0 to st.last_cycle do
    let alu = Buckets.get st.alu i in
    let cycle =
      {
        Job.moves = Buckets.oldest_first st.moves i;
        copies = Buckets.oldest_first st.copies i;
        alu = (if st.forward_count = 0 then alu else List.map (with_forwards st) alu);
        deletes = Buckets.oldest_first st.deletes i;
      }
    in
    moves := !moves + List.length cycle.Job.moves;
    copies := !copies + List.length cycle.Job.copies;
    (match alu with [] -> () | _ :: _ -> incr exec_cycles);
    cycles.(i) <- cycle
  done;
  (* every cycle that fires no ALU was inserted *)
  Obs.add c_inserted (Array.length cycles - !exec_cycles);
  Obs.add c_moves !moves;
  Obs.add c_copies !copies;
  Obs.add c_forwards st.forward_count;
  {
    Job.tile;
    graph = g;
    cycles;
    region_homes = st.homes;
    region_sizes = st.sizes;
    exec_cycle_of_level = st.exec_of_level;
  }
