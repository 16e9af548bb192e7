(* Unit tests for phase 3 (resource allocation). *)

module G = Cdfg.Graph
module Arch = Fpfa_arch.Arch
module Cluster = Mapping.Cluster
module Sched = Mapping.Sched
module Alloc = Mapping.Alloc
module Job = Mapping.Job

let job_of ?options ?(tile = Arch.paper_tile) source =
  let g = Cdfg.Builder.build_program source in
  ignore (Transform.Simplify.minimize g);
  let clustering = Cluster.run ~caps:tile.Arch.alu g in
  let sched = Sched.run ~alu_count:tile.Arch.alu_count clustering in
  Alloc.run ?options ~tile sched

let fir_source = Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source

let test_job_structure () =
  let job = job_of fir_source in
  Alcotest.(check bool) "has cycles" true (Job.cycle_count job > 0);
  (* every region has at least one home slice and a size *)
  List.iter
    (fun (region, _) ->
      Alcotest.(check bool) (region ^ " homed") true
        (Job.home_of job region <> []);
      Alcotest.(check bool) (region ^ " sized") true (Job.size_of job region > 0))
    job.Job.region_homes

let test_levels_map_to_increasing_cycles () =
  let job = job_of fir_source in
  let cycles = Array.to_list job.Job.exec_cycle_of_level in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing cycles)

let test_moves_precede_exec () =
  let job = job_of fir_source in
  (* every move's register is consumed by a later (or equal) exec cycle of
     its cluster; structurally: the move cycle is before that cluster's
     exec cycle *)
  let exec_of_cluster = Hashtbl.create 16 in
  Array.iteri
    (fun cycle (c : Job.cycle) ->
      List.iter
        (fun (w : Job.alu_work) ->
          Hashtbl.replace exec_of_cluster w.Job.wcluster cycle)
        c.Job.alu)
    job.Job.cycles;
  Array.iteri
    (fun cycle (c : Job.cycle) ->
      List.iter
        (fun (m : Job.move) ->
          match Hashtbl.find_opt exec_of_cluster m.Job.for_cluster with
          | Some exec ->
            Alcotest.(check bool) "move before exec" true (cycle < exec);
            Alcotest.(check bool) "within widened window" true
              (exec - cycle <= job.Job.tile.Arch.move_window + 64)
          | None -> Alcotest.fail "move for unknown cluster")
        c.Job.moves)
    job.Job.cycles

let test_bus_limit_respected () =
  let tile = Arch.with_buses 2 Arch.paper_tile in
  let job = job_of ~tile fir_source in
  (* the simulator recounts transfers and faults on overflow *)
  let _, trace = Fpfa_sim.Sim.run job in
  Alcotest.(check bool) "max bus <= 2" true (trace.Fpfa_sim.Sim.max_bus_per_cycle <= 2)

let test_one_read_port_per_memory () =
  let job = job_of fir_source in
  Array.iter
    (fun (c : Job.cycle) ->
      let reads =
        List.map
          (fun (m : Job.move) -> (m.Job.src.Job.mpp, m.Job.src.Job.mem))
          c.Job.moves
      in
      Alcotest.(check int) "distinct memories" (List.length reads)
        (List.length (Fpfa_util.Listx.uniq compare reads)))
    job.Job.cycles

let test_register_banks_not_overfilled () =
  let job = job_of Fpfa_kernels.Kernels.(matmul ~n:3).Fpfa_kernels.Kernels.source in
  let tile = job.Job.tile in
  (* track register occupancy cycle by cycle *)
  let live : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let exec_of_cluster = Hashtbl.create 64 in
  Array.iteri
    (fun cycle (c : Job.cycle) ->
      List.iter
        (fun (w : Job.alu_work) ->
          Hashtbl.replace exec_of_cluster w.Job.wcluster cycle)
        c.Job.alu)
    job.Job.cycles;
  Array.iteri
    (fun cycle (c : Job.cycle) ->
      List.iter
        (fun (m : Job.move) ->
          let r = m.Job.dst in
          let until =
            match Hashtbl.find_opt exec_of_cluster m.Job.for_cluster with
            | Some e -> e
            | None -> cycle
          in
          for t = cycle to until do
            let key = (t, r.Job.pp, r.Job.bank) in
            let n = (match Hashtbl.find_opt live key with Some n -> n | None -> 0) + 1 in
            Hashtbl.replace live key n;
            Alcotest.(check bool) "bank within capacity" true
              (n <= tile.Arch.regs_per_bank)
          done)
        c.Job.moves)
    job.Job.cycles

let test_locality_option () =
  let local = job_of ~options:{ Alloc.locality = true; forwarding = false; interleave = false } fir_source in
  let scattered =
    job_of ~options:{ Alloc.locality = false; forwarding = false; interleave = false } fir_source
  in
  let m1 = Mapping.Metrics.of_job local in
  let m2 = Mapping.Metrics.of_job scattered in
  Alcotest.(check bool) "locality ratio at least as good" true
    (m1.Mapping.Metrics.locality >= m2.Mapping.Metrics.locality)

let test_forwarding_reduces_moves () =
  let source = Fpfa_kernels.Kernels.(polynomial ~degree:6).Fpfa_kernels.Kernels.source in
  let plain = Mapping.Metrics.of_job (job_of source) in
  let fwd =
    Mapping.Metrics.of_job
      (job_of ~options:{ Alloc.locality = true; forwarding = true; interleave = false } source)
  in
  Alcotest.(check bool) "fewer memory moves" true
    (fwd.Mapping.Metrics.moves < plain.Mapping.Metrics.moves);
  Alcotest.(check bool) "forwards happened" true (fwd.Mapping.Metrics.forwards > 0);
  Alcotest.(check bool) "not slower" true
    (fwd.Mapping.Metrics.cycles <= plain.Mapping.Metrics.cycles)

let test_memory_capacity_error () =
  let tile = { Arch.paper_tile with Arch.memory_size = 4 } in
  (* 10 regions of 8 words cannot fit 10 memories of 4 words *)
  let source =
    "void main() { b0[7]=a[0]; b1[7]=a[1]; b2[7]=a[2]; b3[7]=a[3]; b4[7]=a[4]; }"
  in
  match job_of ~tile source with
  | exception Alloc.Allocation_error _ -> ()
  | _ -> Alcotest.fail "expected memory capacity error"

let test_window_parameter () =
  (* a 1-cycle window still allocates (with inserted cycles) *)
  let tile = Arch.with_move_window 1 Arch.paper_tile in
  let job = job_of ~tile fir_source in
  Alcotest.(check bool) "still conformant" true (Fpfa_sim.Sim.conforms job)

let test_single_pp_tile () =
  let tile = Arch.with_alu_count 1 Arch.paper_tile in
  let job = job_of ~tile fir_source in
  Array.iter
    (fun (c : Job.cycle) ->
      Alcotest.(check bool) "at most one ALU bundle" true
        (List.length c.Job.alu <= 1))
    job.Job.cycles

let test_scratch_slots_distinct_from_regions () =
  let job = job_of fir_source in
  (* No two regions' concrete cells may overlap. *)
  let cells_of region =
    List.init (Job.size_of job region) (fun offset ->
        let loc = Job.cell_of job region offset in
        (loc.Job.mpp, loc.Job.mem, loc.Job.addr))
  in
  let regions = List.map fst job.Job.region_homes in
  List.iteri
    (fun i r1 ->
      List.iteri
        (fun j r2 ->
          if i < j then
            let shared =
              List.filter (fun c -> List.mem c (cells_of r2)) (cells_of r1)
            in
            Alcotest.(check (list (triple int int int)))
              (r1 ^ " vs " ^ r2 ^ " disjoint")
              [] shared)
        regions)
    regions

let test_interleaved_cells () =
  let slices =
    [ { Job.mpp = 0; mem = 0; addr = 10 }; { Job.mpp = 0; mem = 1; addr = 4 } ]
  in
  let cell i = Job.interleaved_cell slices i in
  Alcotest.(check int) "cell 0 mem" 0 (cell 0).Job.mem;
  Alcotest.(check int) "cell 0 addr" 10 (cell 0).Job.addr;
  Alcotest.(check int) "cell 1 mem" 1 (cell 1).Job.mem;
  Alcotest.(check int) "cell 1 addr" 4 (cell 1).Job.addr;
  Alcotest.(check int) "cell 5 mem" 1 (cell 5).Job.mem;
  Alcotest.(check int) "cell 5 addr" 6 (cell 5).Job.addr;
  Alcotest.(check int) "cell 6 mem" 0 (cell 6).Job.mem;
  Alcotest.(check int) "cell 6 addr" 13 (cell 6).Job.addr

let interleave_options =
  { Alloc.locality = true; forwarding = false; interleave = true }

let test_interleaving_splits_arrays () =
  let job =
    job_of ~options:interleave_options
      Fpfa_kernels.Kernels.(vector_scale ~n:8).Fpfa_kernels.Kernels.source
  in
  let slices = Job.home_of job "x" in
  Alcotest.(check int) "two slices" 2 (List.length slices);
  (* the two slices must sit on different memories so reads parallelise *)
  (match slices with
  | [ a; b ] ->
    Alcotest.(check bool) "different memories" true
      ((a.Job.mpp, a.Job.mem) <> (b.Job.mpp, b.Job.mem))
  | _ -> Alcotest.fail "expected two slices");
  (* scalars stay contiguous *)
  Alcotest.(check int) "scalar one slice" 1 (List.length (Job.home_of job "i"))

let test_interleaving_conforms () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let job =
        job_of ~options:interleave_options k.Fpfa_kernels.Kernels.source
      in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " interleaved conforms")
        true
        (Fpfa_sim.Sim.conforms ~memory_init:k.Fpfa_kernels.Kernels.inputs job))
    Fpfa_kernels.Kernels.all

let test_interleaved_config_roundtrip () =
  let k = Fpfa_kernels.Kernels.dct4 in
  let job = job_of ~options:interleave_options k.Fpfa_kernels.Kernels.source in
  let job' = Mapping.Encode.of_string (Mapping.Encode.to_string job) in
  Alcotest.(check bool) "roundtrip conforms" true
    (Fpfa_sim.Sim.conforms ~memory_init:k.Fpfa_kernels.Kernels.inputs job')

(* A DAG on a one-bus crossbar and on the widest one the configuration
   image can describe: the per-cycle resource tables hold every count
   either way, so the validator finds no oversubscribed resource and the
   tile computes what the graph does. *)
let test_bus_extremes () =
  let module Flow = Fpfa_core.Flow in
  let g = Fpfa_kernels.Random_graph.generate ~seed:5 ~ops:300 () in
  let memory_init = Fpfa_kernels.Random_graph.random_inputs g in
  List.iter
    (fun buses ->
      let config =
        { Flow.default_config with Flow.tile = Arch.with_buses buses Arch.paper_tile }
      in
      let r = Flow.map_graph ~config g in
      let name = Printf.sprintf "%d buses" buses in
      Alcotest.(check (list string)) (name ^ ": no allocation error") []
        (List.map
           (fun (d : Fpfa_diag.Diag.t) -> d.Fpfa_diag.Diag.message)
           (Fpfa_diag.Diag.errors (Fpfa_sim.Sim.check_diags r.Flow.job)));
      Alcotest.(check bool) (name ^ ": verifies") true (Flow.verify ~memory_init r))
    [ 1; 255 ]

(* A one-cluster clustering storing constant 7 to region [out]: a
   pass-through whose root is node 1, described by [ops] and [cinputs]. *)
let one_cluster ~ops ~cinputs =
  let g = G.create "malformed" in
  G.declare_region g "out" { G.size = Some 1; implicit = false };
  let ss = G.add g (G.Ss_in "out") [] in
  let value = G.add g (G.Const 7) [] in
  let offset = G.add g (G.Const 0) [] in
  let stn = G.add g (G.St "out") [ ss; offset; value ] in
  ignore (G.add g (G.Ss_out "out") [ stn ]);
  let c =
    { Cluster.cid = 0; ops = ops value; root = Some value; stores = [ stn ];
      deletes = []; cinputs = cinputs value }
  in
  Cluster.make g [| c |] []

(* Micro-ops come with the clustering, yet a cluster no ALU can run is
   still reported when it is allocated, in the same words. *)
let test_malformed_cluster_errors () =
  let error clustering =
    match Alloc.run ~tile:Arch.paper_tile (Sched.run clustering) with
    | (_ : Job.t) -> "allocated"
    | exception Alloc.Allocation_error msg -> msg
  in
  Alcotest.(check string) "well-formed" "allocated"
    (error (one_cluster ~ops:(fun _ -> []) ~cinputs:(fun v -> [ v ])));
  Alcotest.(check string) "root not a port" "operand 1 of cluster 0 is not a port"
    (error (one_cluster ~ops:(fun _ -> []) ~cinputs:(fun _ -> [])));
  Alcotest.(check string) "constant as an op" "non-value op 1 inside cluster 0"
    (error (one_cluster ~ops:(fun v -> [ v ]) ~cinputs:(fun _ -> [])))

let suite =
  [
    Alcotest.test_case "job structure" `Quick test_job_structure;
    Alcotest.test_case "levels increase" `Quick test_levels_map_to_increasing_cycles;
    Alcotest.test_case "moves precede exec" `Quick test_moves_precede_exec;
    Alcotest.test_case "bus limit" `Quick test_bus_limit_respected;
    Alcotest.test_case "bus extremes" `Quick test_bus_extremes;
    Alcotest.test_case "read ports" `Quick test_one_read_port_per_memory;
    Alcotest.test_case "register banks" `Quick test_register_banks_not_overfilled;
    Alcotest.test_case "locality option" `Quick test_locality_option;
    Alcotest.test_case "forwarding option" `Quick test_forwarding_reduces_moves;
    Alcotest.test_case "memory capacity" `Quick test_memory_capacity_error;
    Alcotest.test_case "window=1" `Quick test_window_parameter;
    Alcotest.test_case "single PP" `Quick test_single_pp_tile;
    Alcotest.test_case "regions disjoint" `Quick test_scratch_slots_distinct_from_regions;
    Alcotest.test_case "malformed cluster errors" `Quick test_malformed_cluster_errors;
  ]
  @ [
      Alcotest.test_case "interleaved cells" `Quick test_interleaved_cells;
      Alcotest.test_case "interleaving splits" `Quick test_interleaving_splits_arrays;
      Alcotest.test_case "interleaving conforms" `Quick test_interleaving_conforms;
      Alcotest.test_case "interleaved roundtrip" `Quick test_interleaved_config_roundtrip;
    ]
