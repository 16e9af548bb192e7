module D = Fpfa_diag.Diag
module Arch = Fpfa_arch.Arch
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
