module B = Fpfa_util.Bytesio
module Arch = Fpfa_arch.Arch

exception Corrupt of string

let magic = "FCFG"
let version = 1

(* ------------------------- field helpers ------------------------- *)

let write_reg w (r : Job.reg) =
  B.u8 w r.Job.pp;
  B.u8 w r.Job.bank;
  B.u8 w r.Job.index

let read_reg r : Job.reg =
  let pp = B.read_u8 r in
  let bank = B.read_u8 r in
  let index = B.read_u8 r in
  { Job.pp; bank; index }

let write_loc w (loc : Job.mem_loc) =
  B.u8 w loc.Job.mpp;
  B.u8 w loc.Job.mem;
  B.u16 w loc.Job.addr

let read_loc r : Job.mem_loc =
  let mpp = B.read_u8 r in
  let mem = B.read_u8 r in
  let addr = B.read_u16 r in
  { Job.mpp; mem; addr }

let write_action w (a : Job.action) =
  match a with
  | Job.Bin op ->
    B.u8 w 0;
    B.u8 w (Cdfg.Op.binop_code op)
  | Job.Un op ->
    B.u8 w 1;
    B.u8 w (Cdfg.Op.unop_code op)
  | Job.Mux3 -> B.u8 w 2
  | Job.Pass -> B.u8 w 3

let read_action r : Job.action =
  match B.read_u8 r with
  | 0 -> (
    match List.nth_opt Cdfg.Op.all_binops (B.read_u8 r) with
    | Some op -> Job.Bin op
    | None -> raise (Corrupt "bad binop code"))
  | 1 -> (
    match List.nth_opt Cdfg.Op.all_unops (B.read_u8 r) with
    | Some op -> Job.Un op
    | None -> raise (Corrupt "bad unop code"))
  | 2 -> Job.Mux3
  | 3 -> Job.Pass
  | tag -> raise (Corrupt (Printf.sprintf "bad action tag %d" tag))

let write_arg w pos (a : Job.arg) =
  match a with
  | Job.Port p ->
    B.u8 w 0;
    B.u8 w p
  | Job.Node id ->
    B.u8 w 1;
    B.i32 w (pos id)

let read_arg r ids : Job.arg =
  match B.read_u8 r with
  | 0 -> Job.Port (B.read_u8 r)
  | 1 -> Job.Node (ids (B.read_i32 r))
  | tag -> raise (Corrupt (Printf.sprintf "bad arg tag %d" tag))

(* ------------------------- cycle records ------------------------- *)

let write_cycle w pos (c : Job.cycle) =
  B.list w c.Job.moves (fun w (m : Job.move) ->
      write_loc w m.Job.src;
      write_reg w m.Job.dst;
      B.i32 w (pos m.Job.carried);
      B.i32 w m.Job.for_cluster);
  B.list w c.Job.copies (fun w (cp : Job.copy) ->
      write_loc w cp.Job.csrc;
      write_loc w cp.Job.cdst;
      B.i32 w (pos cp.Job.kept));
  B.list w c.Job.alu (fun w (work : Job.alu_work) ->
      B.i32 w work.Job.wcluster;
      B.u8 w work.Job.wpp;
      B.list w work.Job.port_regs (fun w (p, reg) ->
          B.u8 w p;
          write_reg w reg);
      B.list w work.Job.port_imms (fun w (p, v) ->
          B.u8 w p;
          B.i64 w v);
      B.list w work.Job.micros (fun w (m : Job.micro) ->
          B.i32 w (pos m.Job.node);
          write_action w m.Job.action;
          B.list w m.Job.args (fun w a -> write_arg w pos a));
      B.list w work.Job.writes (fun w (wr : Job.write) ->
          write_loc w wr.Job.target;
          B.i32 w wr.Job.wcycle;
          B.option w wr.Job.source_store (fun w id -> B.i32 w (pos id)));
      B.list w work.Job.reg_dests (fun w (cycle, reg) ->
          B.i32 w cycle;
          write_reg w reg));
  B.list w c.Job.deletes (fun w (d : Job.delete_work) ->
      B.i32 w d.Job.dcluster;
      write_loc w d.Job.dloc;
      B.i32 w d.Job.dcycle)

let read_cycle r ids : Job.cycle =
  let moves =
    B.read_list r (fun r ->
        let src = read_loc r in
        let dst = read_reg r in
        let carried = ids (B.read_i32 r) in
        let for_cluster = B.read_i32 r in
        { Job.src; dst; carried; for_cluster })
  in
  let copies =
    B.read_list r (fun r ->
        let csrc = read_loc r in
        let cdst = read_loc r in
        let kept = ids (B.read_i32 r) in
        { Job.csrc; cdst; kept })
  in
  let alu =
    B.read_list r (fun r ->
        let wcluster = B.read_i32 r in
        let wpp = B.read_u8 r in
        let port_regs =
          B.read_list r (fun r ->
              let p = B.read_u8 r in
              (p, read_reg r))
        in
        let port_imms =
          B.read_list r (fun r ->
              let p = B.read_u8 r in
              (p, B.read_i64 r))
        in
        let micros =
          B.read_list r (fun r ->
              let node = ids (B.read_i32 r) in
              let action = read_action r in
              let args = B.read_list r (fun r -> read_arg r ids) in
              { Job.node; action; args })
        in
        let writes =
          B.read_list r (fun r ->
              let target = read_loc r in
              let wcycle = B.read_i32 r in
              let source_store =
                B.read_option r (fun r -> ids (B.read_i32 r))
              in
              { Job.target; wcycle; source_store })
        in
        let reg_dests =
          B.read_list r (fun r ->
              let cycle = B.read_i32 r in
              (cycle, read_reg r))
        in
        { Job.wcluster; wpp; port_regs; port_imms; micros; writes; reg_dests })
  in
  let deletes =
    B.read_list r (fun r ->
        let dcluster = B.read_i32 r in
        let dloc = read_loc r in
        let dcycle = B.read_i32 r in
        { Job.dcluster; dloc; dcycle })
  in
  { Job.moves; copies; alu; deletes }

(* ------------------------- whole image ------------------------- *)

let write_tile w (t : Arch.tile) =
  B.u8 w t.Arch.alu_count;
  B.u8 w t.Arch.banks_per_pp;
  B.u8 w t.Arch.regs_per_bank;
  B.u8 w t.Arch.memories_per_pp;
  B.i32 w t.Arch.memory_size;
  B.u8 w t.Arch.buses;
  B.u8 w t.Arch.move_window;
  B.u8 w t.Arch.alu.Arch.max_inputs;
  B.u8 w t.Arch.alu.Arch.max_depth;
  B.u8 w t.Arch.alu.Arch.max_multipliers;
  B.u8 w t.Arch.alu.Arch.max_ops

let read_tile r : Arch.tile =
  let alu_count = B.read_u8 r in
  let banks_per_pp = B.read_u8 r in
  let regs_per_bank = B.read_u8 r in
  let memories_per_pp = B.read_u8 r in
  let memory_size = B.read_i32 r in
  let buses = B.read_u8 r in
  let move_window = B.read_u8 r in
  let max_inputs = B.read_u8 r in
  let max_depth = B.read_u8 r in
  let max_multipliers = B.read_u8 r in
  let max_ops = B.read_u8 r in
  let tile =
    {
      Arch.alu_count;
      banks_per_pp;
      regs_per_bank;
      memories_per_pp;
      memory_size;
      buses;
      move_window;
      alu = { Arch.max_inputs; max_depth; max_multipliers; max_ops };
    }
  in
  (* A corrupted image must not drive machine allocation: validation
     bounds every field (memory included) before the simulator builds
     arrays sized by them. *)
  (match Arch.validate tile with
  | () -> ()
  | exception Invalid_argument msg -> raise (Corrupt ("bad tile: " ^ msg)));
  tile

(* The hardware-relevant sections (everything except the embedded debug
   CDFG). *)
let config_sections w pos (job : Job.t) =
  write_tile w job.Job.tile;
  B.list w job.Job.region_homes (fun w (region, slices) ->
      B.str w region;
      B.list w slices write_loc);
  B.list w job.Job.region_sizes (fun w (region, size) ->
      B.str w region;
      B.i32 w size);
  B.list w (Array.to_list job.Job.exec_cycle_of_level) B.i32;
  B.list w (Array.to_list job.Job.cycles) (fun w c -> write_cycle w pos c)

let to_string (job : Job.t) =
  let w = B.writer () in
  B.str w magic;
  B.u8 w version;
  (* the debug CDFG comes first so the decoder can resolve node ids while
     reading the per-cycle records *)
  let graph_bytes, pos = Cdfg.Serialize.to_string_mapped job.Job.graph in
  B.blob w graph_bytes;
  config_sections w pos job;
  B.contents w

let of_string data =
  try
    let r = B.reader data in
    if B.read_str r <> magic then raise (Corrupt "bad magic");
    let v = B.read_u8 r in
    if v <> version then raise (Corrupt (Printf.sprintf "unknown version %d" v));
    let graph, ids = Cdfg.Serialize.of_string_mapped (B.read_blob r) in
    let tile = read_tile r in
    let region_homes =
      B.read_list r (fun r ->
          let region = B.read_str r in
          (region, B.read_list r read_loc))
    in
    let region_sizes =
      B.read_list r (fun r ->
          let region = B.read_str r in
          (region, B.read_i32 r))
    in
    let exec_cycle_of_level = Array.of_list (B.read_list r B.read_i32) in
    let cycles = Array.of_list (B.read_list r (fun r -> read_cycle r ids)) in
    if not (B.at_end r) then raise (Corrupt "trailing bytes");
    {
      Job.tile;
      graph;
      cycles;
      region_homes;
      region_sizes;
      exec_cycle_of_level;
    }
  with
  | B.Corrupt msg -> raise (Corrupt msg)
  | Cdfg.Serialize.Corrupt msg -> raise (Corrupt msg)

let to_file job path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string job))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let size_words job =
  let w = B.writer () in
  let _, pos = Cdfg.Serialize.to_string_mapped job.Job.graph in
  config_sections w pos job;
  (B.length w + 1) / 2

let pp_summary fmt job =
  Format.fprintf fmt "config: %d cycles, %d words (%d bytes with debug CDFG)"
    (Job.cycle_count job) (size_words job)
    (String.length (to_string job))
