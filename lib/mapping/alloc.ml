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
   per PP memory, a write port per register bank, ...): one count per
   (cycle, slot), in an array grown by doubling as later cycles are
   reached. *)
module Usage = struct
  type t = { slots : int; mutable counts : int array }

  let create slots = { slots; counts = Array.make (64 * slots) 0 }

  let get t ~cycle slot =
    let i = (cycle * t.slots) + slot in
    if i < Array.length t.counts then t.counts.(i) else 0

  (* Returns the cell it incremented, for the undo log. *)
  let bump t ~cycle slot =
    let i = (cycle * t.slots) + slot in
    let len = Array.length t.counts in
    if i >= len then begin
      let rec grow n = if i < n then n else grow (2 * n) in
      let counts = Array.make (grow (2 * len)) 0 in
      Array.blit t.counts 0 counts 0 len;
      t.counts <- counts
    end;
    t.counts.(i) <- t.counts.(i) + 1;
    i
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

  let free_index t ~pp ~bank ~lo =
    let rec search index =
      if index >= t.regs_per_bank then None
      else if t.busy_until.(slot t ~pp ~bank index) >= lo then search (index + 1)
      else Some index
    in
    search 0
end

(* ------------------------------------------------------------------ *)

type state = {
  tile : Arch.tile;
  options : options;
  graph : G.t;
  sched : Sched.t;
  clustering : Cluster.t;
  pp_of : int array;
  versions : Legalize.versions;
  (* resources *)
  bus : Usage.t;  (* cycle -> transfers *)
  read_port : Usage.t;  (* (cycle, pp * memories + mem) -> reads *)
  write_port : Usage.t;
  bank_write : Usage.t;
      (* (cycle, pp * banks + bank) -> register-bank writes; one port per
         bank *)
  regs : Regs.t;
  cell_last_write : (int * int * int, int) Hashtbl.t;  (* cell -> cycle *)
  (* placement *)
  mutable homes : (string * Job.mem_loc list) list;
  mutable sizes : (string * int) list;
  next_free : (int * int, int) Hashtbl.t;  (* (pp, mem) -> next address *)
  scratch_of : (int, Job.mem_loc) Hashtbl.t;  (* cid -> scratch cell *)
  writeback_of : (G.id, int) Hashtbl.t;  (* St node -> commit cycle *)
  scratch_wb_of : (int, int) Hashtbl.t;  (* cid -> scratch commit cycle *)
  (* output records *)
  mutable rec_moves : (int * Job.move) list;  (* (cycle, move) *)
  mutable rec_alu : (int * Job.alu_work) list;  (* (exec cycle, work) *)
  mutable rec_deletes : (int * Job.delete_work) list;
  forwards : (int, (int * Job.reg) list) Hashtbl.t;
      (* producer cid -> extra register destinations *)
  exec_of_level : int array;
  exec_of_cluster : int array;
  root_has_external : bool array;
  consumers : (G.id, (G.id * int) list) Hashtbl.t;
  endangered_by : (G.id, G.id list) Hashtbl.t;
      (** store/delete -> fetches of the value it destroys *)
  preserve_of : (G.id, Job.mem_loc * int) Hashtbl.t;
      (** fetch -> preservation scratch cell and the cycle it is readable *)
  mutable rec_copies : (int * Job.copy) list;
}

let cell_key (loc : Job.mem_loc) = (loc.Job.mpp, loc.Job.mem, loc.Job.addr)

let memory_slot st pp mem = (pp * st.tile.Arch.memories_per_pp) + mem
let bank_slot st pp bank = (pp * st.tile.Arch.banks_per_pp) + bank

(* --------------------------- region homes -------------------------- *)

(* Words of every region: its declared size, else one past the highest
   offset it is accessed at (one graph scan for all regions). *)
let region_sizes st =
  let max_offset = Hashtbl.create 16 in
  G.iter_ids st.graph (fun id ->
      match G.kind st.graph id with
      | G.Fe r | G.St r | G.Del r ->
        let offset = Legalize.offset st.versions id in
        if offset > Option.value ~default:(-1) (Hashtbl.find_opt max_offset r)
        then Hashtbl.replace max_offset r offset
      | _ -> ());
  fun region info ->
    match info.G.size with
    | Some size -> size
    | None ->
      max 1 (Option.value ~default:(-1) (Hashtbl.find_opt max_offset region) + 1)

let alloc_words st ~preferred_pp words =
  let tile = st.tile in
  let try_loc pp mem =
    let used =
      match Hashtbl.find_opt st.next_free (pp, mem) with Some v -> v | None -> 0
    in
    if used + words <= tile.Arch.memory_size then begin
      Hashtbl.replace st.next_free (pp, mem) (used + words);
      Some { Job.mpp = pp; mem; addr = used }
    end
    else None
  in
  let pps =
    preferred_pp
    :: List.filter (fun p -> p <> preferred_pp)
         (List.init tile.Arch.alu_count Fun.id)
  in
  let rec search = function
    | [] -> errorf "no tile memory can hold %d more words" words
    | pp :: rest -> (
      (* Prefer the least-used memory of the PP for balance. *)
      let mems =
        List.init tile.Arch.memories_per_pp Fun.id
        |> List.sort (fun a b ->
               compare
                 (match Hashtbl.find_opt st.next_free (pp, a) with
                 | Some v -> v
                 | None -> 0)
                 (match Hashtbl.find_opt st.next_free (pp, b) with
                 | Some v -> v
                 | None -> 0))
      in
      match List.find_map (try_loc pp) mems with
      | Some loc -> Some loc
      | None -> search rest)
  in
  match search pps with Some loc -> loc | None -> assert false

let assign_homes st =
  let g = st.graph in
  let order = ref [] in
  (* Regions in order of first store, then first fetch, by allocation order
     of clusters; locality picks the touching cluster's PP. *)
  Array.iter
    (fun level_cids ->
      List.iter
        (fun cid ->
          let c = st.clustering.Cluster.clusters.(cid) in
          let touch region = order := (region, st.pp_of.(cid)) :: !order in
          List.iter
            (fun stn ->
              match G.kind g stn with
              | G.St r -> touch r
              | _ -> ())
            c.Cluster.stores;
          List.iter
            (fun del ->
              match G.kind g del with
              | G.Del r -> touch r
              | _ -> ())
            c.Cluster.deletes;
          List.iter
            (fun input ->
              match G.kind g input with
              | G.Fe r -> touch r
              | _ -> ())
            c.Cluster.cinputs)
        level_cids)
    st.sched.Sched.levels;
  let first_touch = Hashtbl.create 16 in
  List.iter
    (fun (region, pp) ->
      if not (Hashtbl.mem first_touch region) then
        Hashtbl.replace first_touch region pp)
    (List.rev !order);
  let counter = ref 0 in
  let region_size = region_sizes st in
  List.iter
    (fun (region, info) ->
      let words = region_size region info in
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

let home_cell st region offset =
  match List.assoc_opt region st.homes with
  | Some slices -> Job.interleaved_cell slices offset
  | None -> errorf "region %s has no home" region

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
  | G.Binop _ | G.Unop _ | G.Mux -> (
    let cid =
      match Hashtbl.find_opt st.clustering.Cluster.cluster_of input with
      | Some cid -> cid
      | None -> errorf "value node %d is unclustered" input
    in
    match Hashtbl.find_opt st.scratch_of cid with
    | Some loc ->
      let wb = Hashtbl.find st.scratch_wb_of cid in
      (* scratch words are single-assignment: no deadline *)
      In_memory (loc, wb + 1, max_int)
    | None -> errorf "cluster %d produced no scratch word for node %d" cid input)
  | G.Fe _ when Hashtbl.mem st.preserve_of input ->
    let cell, ready = Hashtbl.find st.preserve_of input in
    In_memory (cell, ready, max_int)
  | G.Fe region -> (
    let cell = home_cell st region (Legalize.offset st.versions input) in
    (* The cell becomes unreadable once an already-committed overwriting
       write-back lands: the move must happen no later than that cycle
       (reads precede the end-of-cycle write commit). An overwriter not yet
       allocated executes at a later level and cannot land before this
       level's moves. *)
    let deadline =
      match Legalize.overwriter st.versions input with
      | Some d -> (
        match Hashtbl.find_opt st.writeback_of d with
        | Some wb -> wb
        | None -> max_int)
      | None -> max_int
    in
    (* The version the fetch reads. *)
    match Legalize.latest_version st.versions input with
    | None -> In_memory (cell, 0, deadline)
    | Some m -> (
      match G.kind g m with
      | G.St _ -> (
        match Hashtbl.find_opt st.writeback_of m with
        | Some wb -> In_memory (cell, wb + 1, deadline)
        | None ->
          errorf "fetch %d reads store %d that is not yet allocated" input m)
      | _ -> errorf "fetch %d reads a deleted tuple" input))
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
    errorf "node %d cannot be a cluster operand" input

(* --------------------------- micro-ops ----------------------------- *)

let micros_of_cluster st (c : Cluster.cluster) =
  let g = st.graph in
  let ports = List.mapi (fun i input -> (input, i)) c.Cluster.cinputs in
  let member = Hashtbl.create 8 in
  List.iter (fun op -> Hashtbl.replace member op ()) c.Cluster.ops;
  let arg_of input =
    if Hashtbl.mem member input then Job.Node input
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
      | Use (usage, i) -> usage.Usage.counts.(i) <- usage.Usage.counts.(i) - 1
      | Reg (slot, until) -> st.regs.Regs.busy_until.(slot) <- until)
    plan.undo

let bus_free st cycle = Usage.get st.bus ~cycle 0 < st.tile.Arch.buses

(* Each register bank has a single write port (paper VI-C lists it among
   the allocation challenges). *)
let bank_write_free st cycle ~pp ~bank =
  Usage.get st.bank_write ~cycle (bank_slot st pp bank) < 1

(* Finds a register move for one operand of a cluster executing at [exec]
   on [pp], bank [port]. Paper order: window steps before first, then
   closer. Returns false when no cycle in the window works. *)
let plan_operand st plan ~exec ~pp ~port ~cluster input =
  match source_of st input with
  | Immediate _ -> true
  | In_memory (src, avail, deadline) ->
    let try_forward () =
      (* Extension: the producing cluster writes straight into the
         consumer's register at its own execute cycle. *)
      if not st.options.forwarding then false
      else
        match G.kind st.graph input with
        | G.Binop _ | G.Unop _ | G.Mux -> (
          let pcid = Hashtbl.find st.clustering.Cluster.cluster_of input in
          let t_p = st.exec_of_cluster.(pcid) in
          t_p >= 0
          && exec - t_p >= 1
          && exec - t_p <= st.tile.Arch.move_window
          && bus_free st t_p
          &&
          match
            ( bank_write_free st t_p ~pp ~bank:port,
              Regs.free_index st.regs ~pp ~bank:port ~lo:t_p )
          with
          | true, Some index ->
            let reg = { Job.pp; bank = port; index } in
            reserve plan st.bus ~cycle:t_p 0;
            reserve plan st.bank_write ~cycle:t_p (bank_slot st pp port);
            reserve_reg st plan ~pp ~bank:port index ~until:exec;
            plan.p_forwards <- (pcid, (t_p, reg)) :: plan.p_forwards;
            plan.p_port_regs <- (cluster, (port, reg)) :: plan.p_port_regs;
            true
          | _, _ -> false)
        | _ -> false
    in
    let read_slot = memory_slot st src.Job.mpp src.Job.mem in
    let try_move_at u =
      bus_free st u
      && Usage.get st.read_port ~cycle:u read_slot < 1
      && bank_write_free st u ~pp ~bank:port
      &&
      match Regs.free_index st.regs ~pp ~bank:port ~lo:u with
      | Some index ->
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
      | None -> false
    in
    try_forward ()
    ||
    let window = st.tile.Arch.move_window in
    (* Feasible move cycles: the value is readable and not yet
       overwritten, and the move precedes the execute cycle. *)
    let lo = max 0 avail and hi = min (exec - 1) deadline in
    let rec upwards u last = u <= last && (try_move_at u || upwards (u + 1) last) in
    let rec downwards u last =
      u >= last && (try_move_at u || downwards (u - 1) last)
    in
    (* Candidate move cycles, in preference order:
       1. the paper's window (4, 3, 2, 1 steps before the execute cycle);
       2. widening: up to 64 progressively earlier cycles — these are the
          "inserted clock cycles before the current one" of Fig. 5, with
          registers simply holding their operand longer;
       3. when an already-committed overwrite imposes a deadline earlier
          than the window, up to 64 cycles just before the deadline.
       All bounded so allocation stays linear. *)
    upwards (max lo (exec - window)) hi
    || downwards (min hi (exec - window - 1)) (max lo (exec - window - 64))
    || (hi < exec - window && downwards hi (max lo (hi - 63)))

(* Copies the current word of [cell] to a fresh scratch cell before it is
   overwritten, for every fetch of the old value whose consumers sit at
   levels that are not yet allocated. Returns the earliest cycle at which
   the overwrite may commit (no earlier than any preservation read). *)
let preserve_endangered st ~exec mutator cell =
  match Hashtbl.find_opt st.endangered_by mutator with
  | None -> exec
  | Some fes ->
    let consumers = st.consumers in
    let level_of_mutator =
      match Hashtbl.find_opt st.clustering.Cluster.cluster_of mutator with
      | Some cid -> st.sched.Sched.level_of.(cid)
      | None -> 0
    in
    List.fold_left
      (fun earliest fe ->
        if Hashtbl.mem st.preserve_of fe then
          let _, ready = Hashtbl.find st.preserve_of fe in
          max earliest ready
        else begin
          let future_reader (user, _) =
            match Hashtbl.find_opt st.clustering.Cluster.cluster_of user with
            | Some cid -> st.sched.Sched.level_of.(cid) > level_of_mutator
            | None -> false
          in
          let users =
            match Hashtbl.find_opt consumers fe with Some l -> l | None -> []
          in
          if not (List.exists future_reader users) then earliest
          else begin
            (* Park the old word near its first future reader. *)
            let preferred_pp =
              match List.find_opt future_reader users with
              | Some (user, _) -> (
                match Hashtbl.find_opt st.clustering.Cluster.cluster_of user with
                | Some cid -> st.pp_of.(cid)
                | None -> cell.Job.mpp)
              | None -> cell.Job.mpp
            in
            let scratch = alloc_words st ~preferred_pp 1 in
            let floor =
              match Hashtbl.find_opt st.cell_last_write (cell_key cell) with
              | Some last -> last + 1
              | None -> 0
            in
            let rec search p =
              if p > floor + 1000 then
                errorf "preservation copy search exceeded bound";
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
                Hashtbl.replace st.cell_last_write (cell_key scratch) p;
                p
              end
              else search (p + 1)
            in
            let p = search floor in
            Hashtbl.replace st.preserve_of fe (scratch, p + 1);
            st.rec_copies <-
              (p, { Job.csrc = cell; cdst = scratch; kept = fe })
              :: st.rec_copies;
            (* the overwrite must not land before the copy has read *)
            max earliest p
          end
        end)
      exec fes

(* Schedules a memory write at the earliest cycle >= [earliest] with a free
   write port and bus, preserving per-cell write order. Commits directly
   (write-backs never fail, so they need no rollback). *)
let commit_write st ~earliest (cell : Job.mem_loc) =
  let key = cell_key cell in
  let floor =
    match Hashtbl.find_opt st.cell_last_write key with
    | Some last -> max earliest (last + 1)
    | None -> earliest
  in
  let port = memory_slot st cell.Job.mpp cell.Job.mem in
  let rec search cycle =
    if cycle > floor + 1000 then errorf "write-back search exceeded bound";
    if Usage.get st.write_port ~cycle port < 1 && bus_free st cycle then begin
      ignore (Usage.bump st.write_port ~cycle port);
      ignore (Usage.bump st.bus ~cycle 0);
      Hashtbl.replace st.cell_last_write key cycle;
      cycle
    end
    else search (cycle + 1)
  in
  search floor

let commit_delete st ~earliest (cell : Job.mem_loc) =
  let key = cell_key cell in
  let floor =
    match Hashtbl.find_opt st.cell_last_write key with
    | Some last -> max earliest (last + 1)
    | None -> earliest
  in
  let port = memory_slot st cell.Job.mpp cell.Job.mem in
  let rec search cycle =
    if cycle > floor + 1000 then errorf "delete search exceeded bound";
    if Usage.get st.write_port ~cycle port < 1 then begin
      ignore (Usage.bump st.write_port ~cycle port);
      Hashtbl.replace st.cell_last_write key cycle;
      cycle
    end
    else search (cycle + 1)
  in
  search floor

(* --------------------------- level placement ----------------------- *)

let alu_clusters_of_level st level_cids =
  List.filter
    (fun cid -> Sched.uses_alu st.clustering.Cluster.clusters.(cid))
    level_cids

(* Plans the operand moves of a level executing at [exec], reserving as it
   goes; a failed attempt is rolled back. *)
let try_level st ~exec level_cids =
  let plan = new_plan () in
  let ok =
    List.for_all
      (fun cid ->
        let pp = st.pp_of.(cid) in
        let rec operands port = function
          | [] -> true
          | input :: rest ->
            (match G.kind st.graph input with
            | G.Const _ -> true
            | _ -> plan_operand st plan ~exec ~pp ~port ~cluster:cid input)
            && operands (port + 1) rest
        in
        operands 0 st.clustering.Cluster.clusters.(cid).Cluster.cinputs)
      (alu_clusters_of_level st level_cids)
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
    (fun (pcid, dest) ->
      let old =
        match Hashtbl.find_opt st.forwards pcid with Some l -> l | None -> []
      in
      Hashtbl.replace st.forwards pcid (dest :: old))
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
                let offset = Legalize.const_offset g stn in
                let cell = home_cell st region offset in
                let earliest = preserve_endangered st ~exec stn cell in
                let wcycle = commit_write st ~earliest cell in
                Hashtbl.replace st.writeback_of stn wcycle;
                { Job.target = cell; wcycle; source_store = Some stn }
              | _ -> errorf "cluster %d has a non-store write-back" cid)
            c.Cluster.stores
        in
        let writes =
          if st.root_has_external.(cid) then begin
            let scratch = alloc_words st ~preferred_pp:pp 1 in
            let wcycle = commit_write st ~earliest:exec scratch in
            Hashtbl.replace st.scratch_of cid scratch;
            Hashtbl.replace st.scratch_wb_of cid wcycle;
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
            let offset = Legalize.const_offset g del in
            let cell = home_cell st region offset in
            let earliest = preserve_endangered st ~exec del cell in
            let dcycle = commit_delete st ~earliest cell in
            Hashtbl.replace st.writeback_of del dcycle;
            st.rec_deletes <-
              (dcycle, { Job.dcluster = cid; dloc = cell; dcycle })
              :: st.rec_deletes
          | _ -> errorf "cluster %d has a non-delete delete" cid)
        c.Cluster.deletes)
    level_cids

(* ------------------------------- driver ---------------------------- *)

let assign_pps st =
  Array.iter
    (fun level_cids ->
      List.iteri
        (fun position cid -> st.pp_of.(cid) <- position)
        (alu_clusters_of_level st level_cids))
    st.sched.Sched.levels

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

let compute_root_externals clustering consumers =
  Array.map
    (fun (c : Cluster.cluster) ->
      match c.Cluster.root with
      | None -> false
      | Some root ->
        let inside = Hashtbl.create 8 in
        List.iter (fun op -> Hashtbl.replace inside op ()) c.Cluster.ops;
        List.iter (fun stn -> Hashtbl.replace inside stn ()) c.Cluster.stores;
        let uses =
          match Hashtbl.find_opt consumers root with Some l -> l | None -> []
        in
        List.exists (fun (user, _) -> not (Hashtbl.mem inside user)) uses)
    clustering.Cluster.clusters

let run ?(options = default_options) ~tile (sched : Sched.t) =
  Arch.validate tile;
  let clustering = sched.Sched.clustering in
  let g = clustering.Cluster.graph in
  Legalize.check g;
  let n = Array.length clustering.Cluster.clusters in
  let consumers = G.consumers g in
  let memories = tile.Arch.alu_count * tile.Arch.memories_per_pp in
  let st =
    {
      tile;
      options;
      graph = g;
      sched;
      clustering;
      pp_of = Array.make n 0;
      versions = Legalize.versions g;
      bus = Usage.create 1;
      read_port = Usage.create memories;
      write_port = Usage.create memories;
      bank_write = Usage.create (tile.Arch.alu_count * tile.Arch.banks_per_pp);
      regs = Regs.create tile;
      cell_last_write = Hashtbl.create 64;
      homes = [];
      sizes = [];
      next_free = Hashtbl.create 16;
      scratch_of = Hashtbl.create 16;
      writeback_of = Hashtbl.create 64;
      scratch_wb_of = Hashtbl.create 16;
      rec_moves = [];
      rec_alu = [];
      rec_deletes = [];
      forwards = Hashtbl.create 16;
      exec_of_level = Array.make (Sched.level_count sched) (-1);
      exec_of_cluster = Array.make n (-1);
      root_has_external = compute_root_externals clustering consumers;
      consumers;
      endangered_by = Hashtbl.create 64;
      preserve_of = Hashtbl.create 16;
      rec_copies = [];
    }
  in
  (* A fetch's value dies at the first same-cell store/delete downstream of
     its token. *)
  G.iter_ids g (fun fe ->
      match G.kind g fe with
      | G.Fe _ -> (
        match Legalize.overwriter st.versions fe with
        | Some next ->
          let old =
            match Hashtbl.find_opt st.endangered_by next with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace st.endangered_by next (fe :: old)
        | None -> ())
      | _ -> ());
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
        match try_level st ~exec level_cids with
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
        match Hashtbl.find_opt st.forwards work.Job.wcluster with
        | Some dests -> (cycle, { work with Job.reg_dests = List.sort compare dests })
        | None -> (cycle, work))
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
