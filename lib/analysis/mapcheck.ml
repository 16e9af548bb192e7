module G = Cdfg.Graph
module D = Fpfa_diag.Diag
module Arch = Fpfa_arch.Arch
module Cluster = Mapping.Cluster
module Sched = Mapping.Sched
module Job = Mapping.Job
module Obs = Fpfa_obs.Obs

let duplicates compare items =
  let sorted = List.stable_sort compare items in
  let rec scan = function
    | a :: (b :: _ as rest) ->
      if compare a b = 0 then a :: scan rest else scan rest
    | _ -> []
  in
  scan sorted

(* {2 Clustering} *)

(* Longest op chain inside one cluster: only edges between member ops
   count; external operands arrive in registers and cost no depth. *)
let member_depth g members ops =
  let memo = Hashtbl.create 8 in
  let rec depth id =
    match Hashtbl.find_opt memo id with
    | Some d -> d
    | None ->
      (* Pre-seed so a (corrupt) cyclic membership terminates. *)
      Hashtbl.replace memo id 1;
      let d =
        if not (G.mem g id) then 1
        else
          1
          + List.fold_left
              (fun acc i ->
                if G.Id_set.mem i members then max acc (depth i) else acc)
              0 (G.inputs g id)
      in
      Hashtbl.replace memo id d;
      d
  in
  List.fold_left (fun acc id -> max acc (depth id)) 0 ops

let cluster ?(caps = Arch.paper_alu) (c : Cluster.t) =
  Obs.span ~cat:"analysis" "mapcheck-cluster" @@ fun () ->
  let g = c.Cluster.graph in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nclusters = Array.length c.Cluster.clusters in
  Array.iter
    (fun (cl : Cluster.cluster) ->
      let cid = cl.Cluster.cid in
      let ops = cl.Cluster.ops in
      if
        ops = [] && cl.Cluster.stores = [] && cl.Cluster.deletes = []
        && cl.Cluster.root = None
      then add (D.error ~node:cid "cluster.empty" "cluster %d is empty" cid);
      let n_inputs = List.length cl.Cluster.cinputs in
      if n_inputs > caps.Arch.max_inputs then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d reads %d distinct operands (ALU has %d input ports)"
             cid n_inputs caps.Arch.max_inputs);
      let n_ops = List.length ops in
      if n_ops > caps.Arch.max_ops then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d fuses %d operations (data path allows %d)" cid n_ops
             caps.Arch.max_ops);
      let muls =
        List.length
          (List.filter
             (fun id ->
               G.mem g id
               &&
               match G.kind g id with
               | G.Binop op -> Cdfg.Op.is_multiplier_class op
               | _ -> false)
             ops)
      in
      if muls > caps.Arch.max_multipliers then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d uses %d multiplier-class operations (data path has \
              %d)"
             cid muls caps.Arch.max_multipliers);
      let members =
        List.fold_left (fun s id -> G.Id_set.add id s) G.Id_set.empty ops
      in
      let depth = member_depth g members ops in
      if depth > caps.Arch.max_depth then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d chains %d operation levels (data path allows %d)" cid
             depth caps.Arch.max_depth);
      match cl.Cluster.root with
      | Some r when not (G.mem g r) ->
        add
          (D.error ~node:cid "cluster.coverage"
             "cluster %d roots at removed node %d" cid r)
      | Some r when ops <> [] && not (List.mem r ops) ->
        add
          (D.error ~node:cid "cluster.coverage"
             "cluster %d roots at node %d, which is not a member op" cid r)
      | Some _ | None -> ())
    c.Cluster.clusters;
  (* Node <-> cluster map consistency, both directions. *)
  let listed cid id =
    cid >= 0 && cid < nclusters
    &&
    let cl = c.Cluster.clusters.(cid) in
    List.mem id cl.Cluster.ops
    || List.mem id cl.Cluster.stores
    || List.mem id cl.Cluster.deletes
    || cl.Cluster.root = Some id
  in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Binop _ | G.Unop _ | G.Mux | G.St _ | G.Del _ ->
        let cid =
          if n.G.id < Array.length c.Cluster.cluster_of then
            c.Cluster.cluster_of.(n.G.id)
          else -1
        in
        if cid < 0 then
          add
            (D.error ~node:n.G.id "cluster.coverage"
               "node %d belongs to no cluster" n.G.id)
        else if not (listed cid n.G.id) then
          add
            (D.error ~node:n.G.id "cluster.coverage"
               "node %d maps to cluster %d, which does not list it" n.G.id
               cid)
      | _ -> ());
  (* Cluster dependence relation must be a DAG (weight-0 cycles would
     require two clusters in the same level to precede each other). *)
  let indeg = Array.make nclusters 0 in
  let adj = Array.make nclusters [] in
  let edges_ok =
    List.for_all
      (fun (e : Cluster.edge) ->
        let ok =
          e.Cluster.src >= 0 && e.Cluster.src < nclusters && e.Cluster.dst >= 0
          && e.Cluster.dst < nclusters
        in
        if ok then begin
          indeg.(e.Cluster.dst) <- indeg.(e.Cluster.dst) + 1;
          adj.(e.Cluster.src) <- e.Cluster.dst :: adj.(e.Cluster.src)
        end
        else
          add
            (D.error "cluster.coverage"
               "edge %d -> %d references a cluster out of range" e.Cluster.src
               e.Cluster.dst);
        ok)
      c.Cluster.edges
  in
  if edges_ok then begin
    let queue = Queue.create () in
    Array.iteri (fun cid d -> if d = 0 then Queue.add cid queue) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      incr seen;
      List.iter
        (fun dst ->
          indeg.(dst) <- indeg.(dst) - 1;
          if indeg.(dst) = 0 then Queue.add dst queue)
        adj.(Queue.pop queue)
    done;
    if !seen < nclusters then
      add
        (D.error "cluster.cycle"
           "cluster dependence relation has a cycle (%d of %d clusters \
            unreachable from sources)"
           (nclusters - !seen) nclusters)
  end;
  List.rev !diags

(* {2 Scheduling} *)

let sched ?(alu_count = 5) (s : Sched.t) =
  Obs.span ~cat:"analysis" "mapcheck-sched" @@ fun () ->
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let clusters = s.Sched.clustering.Cluster.clusters in
  let nclusters = Array.length clusters in
  let nlevels = Array.length s.Sched.levels in
  let placed cid =
    cid >= 0 && cid < Array.length s.Sched.level_of
    &&
    let lvl = s.Sched.level_of.(cid) in
    lvl >= 0 && lvl < nlevels
  in
  for cid = 0 to nclusters - 1 do
    if not (placed cid) then
      add
        (D.error ~node:cid "sched.unplaced"
           "cluster %d has no level inside the schedule" cid)
    else begin
      let lvl = s.Sched.level_of.(cid) in
      let listed =
        List.length (List.filter (fun c -> c = cid) s.Sched.levels.(lvl))
      in
      if listed <> 1 then
        add
          (D.error ~node:cid "sched.unplaced"
             "cluster %d appears %d times in its level's placement list" cid
             listed)
    end
  done;
  Array.iteri
    (fun lvl cids ->
      List.iter
        (fun cid ->
          if
            cid >= 0
            && cid < Array.length s.Sched.level_of
            && s.Sched.level_of.(cid) <> lvl
          then
            add
              (D.error ~node:cid "sched.unplaced"
                 "level %d lists cluster %d, which is placed at level %d" lvl
                 cid s.Sched.level_of.(cid)))
        cids)
    s.Sched.levels;
  List.iter
    (fun (e : Cluster.edge) ->
      if placed e.Cluster.src && placed e.Cluster.dst then begin
        let src = s.Sched.level_of.(e.Cluster.src)
        and dst = s.Sched.level_of.(e.Cluster.dst) in
        if src + e.Cluster.weight > dst then
          add
            (D.error ~node:e.Cluster.dst "sched.dependence"
               "cluster %d at level %d violates dependence on cluster %d at \
                level %d (weight %d)"
               e.Cluster.dst dst e.Cluster.src src e.Cluster.weight)
      end)
    s.Sched.clustering.Cluster.edges;
  Array.iteri
    (fun lvl cids ->
      let alu_users =
        List.length
          (List.filter
             (fun cid ->
               cid >= 0 && cid < nclusters && Sched.uses_alu clusters.(cid))
             cids)
      in
      if alu_users > alu_count then
        add
          (D.error ~node:lvl "sched.capacity"
             "level %d runs %d ALU clusters on a %d-ALU tile" lvl alu_users
             alu_count))
    s.Sched.levels;
  (* Mobility window: ASAP is a hard lower bound; ALAP shifts down by the
     slack the scheduler inserted for capacity overflows. *)
  let slack = max 0 (nlevels - Sched.critical_path_levels s) in
  for cid = 0 to nclusters - 1 do
    if placed cid && cid < Array.length s.Sched.asap
       && cid < Array.length s.Sched.alap
    then begin
      let lvl = s.Sched.level_of.(cid) in
      if lvl < s.Sched.asap.(cid) then
        add
          (D.error ~node:cid "sched.asap"
             "cluster %d at level %d precedes its ASAP level %d" cid lvl
             s.Sched.asap.(cid));
      if lvl > s.Sched.alap.(cid) + slack then
        add
          (D.error ~node:cid "sched.asap"
             "cluster %d at level %d exceeds its ALAP level %d plus inserted \
              slack %d"
             cid lvl s.Sched.alap.(cid) slack)
    end
  done;
  List.rev !diags

(* {2 Allocation} *)

let alloc (job : Job.t) =
  Obs.span ~cat:"analysis" "mapcheck-alloc" @@ fun () ->
  let tile = job.Job.tile in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ncycles = Array.length job.Job.cycles in
  let reg_ok cycle what (r : Job.reg) =
    if
      r.Job.pp < 0
      || r.Job.pp >= tile.Arch.alu_count
      || r.Job.bank < 0
      || r.Job.bank >= tile.Arch.banks_per_pp
      || r.Job.index < 0
      || r.Job.index >= tile.Arch.regs_per_bank
    then
      add
        (D.error ~node:cycle "alloc.reg-bounds"
           "cycle %d: %s targets register (pp %d, bank %d, reg %d) outside \
            the tile"
           cycle what r.Job.pp r.Job.bank r.Job.index)
  in
  let mem_ok cycle what (l : Job.mem_loc) =
    if
      l.Job.mpp < 0
      || l.Job.mpp >= tile.Arch.alu_count
      || l.Job.mem < 0
      || l.Job.mem >= tile.Arch.memories_per_pp
      || l.Job.addr < 0
      || l.Job.addr >= tile.Arch.memory_size
    then
      add
        (D.error ~node:cycle "alloc.mem-bounds"
           "cycle %d: %s addresses memory (pp %d, mem %d, addr %d) outside \
            the tile"
           cycle what l.Job.mpp l.Job.mem l.Job.addr)
  in
  (* Region layout: every cell of every slice must exist. *)
  List.iter
    (fun (region, slices) ->
      let size =
        match List.assoc_opt region job.Job.region_sizes with
        | Some s -> s
        | None -> 0
      in
      List.iter (mem_ok 0 (Printf.sprintf "region %s base" region)) slices;
      if size > 0 && slices <> [] then
        mem_ok 0
          (Printf.sprintf "region %s last cell" region)
          (Job.interleaved_cell slices (size - 1)))
    job.Job.region_homes;
  (* Deferred commits, mirroring the simulator's accounting: ALU writes
     and deletes occupy a crossbar lane at their commit cycle;
     preservation copies counted their lane when they read. *)
  let commits : (int, (Job.mem_loc * bool) list) Hashtbl.t =
    Hashtbl.create ncycles
  in
  let defer issue_cycle commit_cycle loc ~lane =
    if commit_cycle < 0 || commit_cycle >= ncycles then
      add
        (D.error ~node:issue_cycle "alloc.write-conflict"
           "cycle %d: write-back commits at cycle %d, outside the job"
           issue_cycle commit_cycle)
    else
      Hashtbl.replace commits commit_cycle
        ((loc, lane)
        ::
        (match Hashtbl.find_opt commits commit_cycle with
        | Some l -> l
        | None -> []))
  in
  Array.iteri
    (fun index (cycle : Job.cycle) ->
      List.iter
        (fun (w : Job.alu_work) ->
          List.iter
            (fun (wr : Job.write) ->
              mem_ok index "write-back" wr.Job.target;
              defer index wr.Job.wcycle wr.Job.target ~lane:true)
            w.Job.writes)
        cycle.Job.alu;
      List.iter
        (fun (d : Job.delete_work) ->
          mem_ok index "delete" d.Job.dloc;
          defer index d.Job.dcycle d.Job.dloc ~lane:true)
        cycle.Job.deletes;
      List.iter
        (fun (cp : Job.copy) ->
          mem_ok index "copy read" cp.Job.csrc;
          mem_ok index "copy commit" cp.Job.cdst;
          defer index index cp.Job.cdst ~lane:false)
        cycle.Job.copies)
    job.Job.cycles;
  Array.iteri
    (fun index (cycle : Job.cycle) ->
      (* One ALU bundle per PP, PPs in range. *)
      let pps = List.map (fun (w : Job.alu_work) -> w.Job.wpp) cycle.Job.alu in
      List.iter
        (fun pp ->
          if pp < 0 || pp >= tile.Arch.alu_count then
            add
              (D.error ~node:index "alloc.pp-conflict"
                 "cycle %d: PP %d is outside the tile" index pp))
        pps;
      List.iter
        (fun pp ->
          add
            (D.error ~node:index "alloc.pp-conflict"
               "cycle %d: two ALU bundles on PP %d" index pp))
        (duplicates compare pps);
      (* Crossbar lanes. *)
      let commits_now =
        match Hashtbl.find_opt commits index with
        | Some l -> List.length (List.filter snd l)
        | None -> 0
      in
      let forwards =
        List.concat_map (fun (w : Job.alu_work) -> w.Job.reg_dests) cycle.Job.alu
      in
      List.iter
        (fun (fcycle, (_ : Job.reg)) ->
          if fcycle <> index then
            add
              (D.error ~node:index "alloc.bus-capacity"
                 "cycle %d: register forward scheduled at cycle %d" index
                 fcycle))
        forwards;
      let bus =
        List.length cycle.Job.moves
        + List.length cycle.Job.copies
        + commits_now + List.length forwards
      in
      if bus > tile.Arch.buses then
        add
          (D.error ~node:index "alloc.bus-capacity"
             "cycle %d: %d crossbar transfers exceed %d lanes" index bus
             tile.Arch.buses);
      (* Register geometry and bank write ports. *)
      List.iter
        (fun (mv : Job.move) ->
          mem_ok index "move read" mv.Job.src;
          reg_ok index "move" mv.Job.dst)
        cycle.Job.moves;
      List.iter
        (fun (w : Job.alu_work) ->
          List.iter (fun (_, r) -> reg_ok index "operand" r) w.Job.port_regs;
          List.iter (fun (_, r) -> reg_ok index "forward" r) w.Job.reg_dests)
        cycle.Job.alu;
      let bank_writes =
        List.map
          (fun (mv : Job.move) -> (mv.Job.dst.Job.pp, mv.Job.dst.Job.bank))
          cycle.Job.moves
        @ List.map
            (fun ((_ : int), (r : Job.reg)) -> (r.Job.pp, r.Job.bank))
            forwards
      in
      List.iter
        (fun (pp, bank) ->
          add
            (D.error ~node:index "alloc.write-conflict"
               "cycle %d: register bank (pp %d, bank %d) written twice" index
               pp bank))
        (duplicates compare bank_writes);
      (* Memory read ports. *)
      let reads =
        List.map
          (fun (mv : Job.move) -> (mv.Job.src.Job.mpp, mv.Job.src.Job.mem))
          cycle.Job.moves
        @ List.map
            (fun (cp : Job.copy) -> (cp.Job.csrc.Job.mpp, cp.Job.csrc.Job.mem))
            cycle.Job.copies
      in
      List.iter
        (fun (mpp, mem) ->
          add
            (D.error ~node:index "alloc.read-conflict"
               "cycle %d: memory (pp %d, mem %d) read twice" index mpp mem))
        (duplicates compare reads);
      (* Memory write ports and cell races at commit time. *)
      match Hashtbl.find_opt commits index with
      | None -> ()
      | Some committed ->
        let cells = List.map fst committed in
        List.iter
          (fun (l : Job.mem_loc) ->
            add
              (D.error ~node:index "alloc.write-conflict"
                 "cycle %d: two writes race on cell (pp %d, mem %d, addr %d)"
                 index l.Job.mpp l.Job.mem l.Job.addr))
          (duplicates compare cells);
        (* Two same-cell writes already reported above; only distinct cells
           sharing a port are a new finding. *)
        let distinct_cells = List.sort_uniq compare cells in
        let distinct_ports =
          List.map (fun (l : Job.mem_loc) -> (l.Job.mpp, l.Job.mem))
            distinct_cells
        in
        List.iter
          (fun (mpp, mem) ->
            add
              (D.error ~node:index "alloc.write-conflict"
                 "cycle %d: memory (pp %d, mem %d) write port used twice"
                 index mpp mem))
          (duplicates compare distinct_ports))
    job.Job.cycles;
  List.rev !diags
