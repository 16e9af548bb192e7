(* Unit tests for the tile simulator, including fault injection: a tampered
   job must be rejected, proving the simulator really checks constraints. *)

module Arch = Fpfa_arch.Arch
module Job = Mapping.Job
module Sim = Fpfa_sim.Sim

let job_for (k : Fpfa_kernels.Kernels.t) =
  let result = Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source in
  (result.Fpfa_core.Flow.job, k.Fpfa_kernels.Kernels.inputs)

let test_kernel_conformance () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let job, memory_init = job_for k in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " conforms")
        true
        (Sim.conforms ~memory_init job))
    Fpfa_kernels.Kernels.all

let test_trace_counts () =
  let job, memory_init = job_for Fpfa_kernels.Kernels.fir_paper in
  let _, trace = Sim.run ~memory_init job in
  let metrics = Mapping.Metrics.of_job job in
  Alcotest.(check int) "moves agree with metrics" metrics.Mapping.Metrics.moves
    trace.Sim.moves_executed;
  Alcotest.(check int) "writes agree with metrics"
    metrics.Mapping.Metrics.mem_writes trace.Sim.writes_executed;
  Alcotest.(check bool) "bus within tile limit" true
    (trace.Sim.max_bus_per_cycle <= job.Job.tile.Arch.buses)

let test_unseeded_inputs_read_zero () =
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  let memory, _ = Sim.run job in
  (* with all-zero inputs the FIR sum is zero *)
  match List.assoc_opt "sum" memory with
  | Some [| 0 |] -> ()
  | _ -> Alcotest.fail "expected zero sum"

let tamper f job =
  {
    job with
    Job.cycles =
      Array.map
        (fun (c : Job.cycle) -> f c)
        job.Job.cycles;
  }

let test_fault_two_bundles_one_pp () =
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  let bad =
    tamper
      (fun c ->
        match c.Job.alu with
        | w :: rest -> { c with Job.alu = w :: w :: rest }
        | [] -> c)
      job
  in
  match Sim.run bad with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "duplicate bundle accepted"

let test_fault_read_port_conflict () =
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  let bad =
    tamper
      (fun c ->
        match c.Job.moves with
        | m :: rest ->
          (* a second read of the same memory in the same cycle *)
          { c with Job.moves = m :: { m with Job.dst = { m.Job.dst with Job.index = 3 } } :: rest }
        | [] -> c)
      job
  in
  match Sim.run bad with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "read-port conflict accepted"

let test_fault_bus_overflow () =
  let tile = Arch.with_buses 1 Arch.paper_tile in
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  (* shrink the tile under the job's feet: the simulator must notice *)
  let bad = { job with Job.tile } in
  match Sim.run bad with
  | exception Sim.Fault _ -> ()
  | _ ->
    (* jobs with <=1 transfer per cycle would legitimately pass; the FIR
       job has cycles with several transfers *)
    Alcotest.fail "bus overflow accepted"

let test_fault_write_race () =
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  let bad =
    tamper
      (fun c ->
        match c.Job.alu with
        | w :: rest -> (
          match w.Job.writes with
          | wr :: _ ->
            (* duplicate the write: two writes race on one cell *)
            { c with Job.alu = { w with Job.writes = [ wr; wr ] } :: rest }
          | [] -> c)
        | [] -> c)
      job
  in
  match Sim.run bad with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "write race accepted"

let test_fault_missing_port_source () =
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  let bad =
    tamper
      (fun c ->
        {
          c with
          Job.alu =
            List.map
              (fun (w : Job.alu_work) ->
                { w with Job.port_regs = []; port_imms = [] })
              c.Job.alu;
        })
      job
  in
  match Sim.run bad with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "missing port source accepted"

let test_deleted_read_faults () =
  (* hand-build a job that deletes a cell and then moves from it *)
  let g = Cdfg.Graph.create "t" in
  Cdfg.Graph.declare_region g "r" { Cdfg.Graph.size = Some 1; implicit = true };
  let ss = Cdfg.Graph.add g (Cdfg.Graph.Ss_in "r") [] in
  ignore (Cdfg.Graph.add g (Cdfg.Graph.Ss_out "r") [ ss ]);
  let loc = { Job.mpp = 0; mem = 0; addr = 0 } in
  let job =
    {
      Job.tile = Arch.paper_tile;
      graph = g;
      cycles =
        [|
          { Job.moves = []; copies = []; alu = [];
            deletes = [ { Job.dcluster = 0; dloc = loc; dcycle = 0 } ] };
          {
            Job.moves =
              [ { Job.src = loc; dst = { Job.pp = 0; bank = 0; index = 0 }; carried = 0; for_cluster = 0 } ];
            copies = [];
            alu = [];
            deletes = [];
          };
        |];
      region_homes = [ ("r", [ loc ]) ];
      region_sizes = [ ("r", 1) ];
      exec_cycle_of_level = [||];
    }
  in
  match Sim.run job with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "read of deleted word accepted"

(* {2 Hand-built faults}

   Each job below is valid but for one thing, so the fault it raises is
   the check under test. *)

(* A one-region job on the paper tile running [cycles]. *)
let tiny_job cycles =
  let g = Cdfg.Graph.create "t" in
  Cdfg.Graph.declare_region g "r" { Cdfg.Graph.size = Some 1; implicit = true };
  let ss = Cdfg.Graph.add g (Cdfg.Graph.Ss_in "r") [] in
  ignore (Cdfg.Graph.add g (Cdfg.Graph.Ss_out "r") [ ss ]);
  {
    Job.tile = Arch.paper_tile;
    graph = g;
    cycles = Array.of_list cycles;
    region_homes = [ ("r", [ { Job.mpp = 0; mem = 0; addr = 0 } ]) ];
    region_sizes = [ ("r", 1) ];
    exec_cycle_of_level = [||];
  }

let cycle ?(moves = []) ?(alu = []) () =
  { Job.moves; copies = []; alu; deletes = [] }

let loc ?(mem = 0) addr = { Job.mpp = 0; mem; addr }
let reg ?(bank = 0) index = { Job.pp = 0; bank; index }
let move ?(index = 0) src = { Job.src; dst = reg index; carried = 0; for_cluster = 0 }

(* One micro-op per node; [pass] copies the bundle's immediate on port 0. *)
let pass = { Job.node = 0; action = Job.Pass; args = [ Job.Port 0 ] }

let bundle ?(pp = 0) ?(writes = []) ?(reg_dests = []) micros =
  {
    Job.wcluster = 0;
    wpp = pp;
    port_regs = [];
    port_imms = [ (0, 7) ];
    micros;
    writes;
    reg_dests;
  }

let write_at cycle target = { Job.target; wcycle = cycle; source_store = None }

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

let expect_fault ~says cycles () =
  match Sim.run (tiny_job cycles) with
  | exception Sim.Fault msg ->
    if not (contains ~sub:says msg) then
      Alcotest.failf "fault %S does not say %S" msg says
  | _ -> Alcotest.failf "a job that should fault with %S ran" says

let hand_built_faults =
  [
    ( "PP range",
      "PP 5 out of range",
      [ cycle ~alu:[ bundle ~pp:5 [ pass ] ] () ] );
    ( "bank write port",
      "register-bank write-port conflict",
      [ cycle ~moves:[ move (loc 0); move ~index:1 (loc ~mem:1 0) ] () ] );
    ( "memory write port",
      "memory write-port conflict",
      [ cycle
          ~alu:[ bundle ~writes:[ write_at 0 (loc 0); write_at 0 (loc 1) ] [ pass ] ]
          () ] );
    ( "forward cycle",
      "forward scheduled at 1",
      [ cycle ~alu:[ bundle ~reg_dests:[ (1, reg 0) ] [ pass ] ] (); cycle () ] );
    ( "late write-back",
      "write-backs scheduled past the end of the job",
      [ cycle ~alu:[ bundle ~writes:[ write_at 1 (loc 0) ] [ pass ] ] () ] );
    ( "register range",
      "register out of range",
      [ cycle ~moves:[ move ~index:4 (loc 0) ] () ] );
    ( "memory range",
      "memory location out of range",
      [ cycle ~moves:[ move (loc 512) ] () ] );
    ( "internal value",
      "internal value t3 not yet computed",
      [ cycle ~alu:[ bundle [ { pass with Job.args = [ Job.Node 3 ] } ] ] () ] );
    ( "micro-op arity",
      "malformed micro-op arity",
      [ cycle ~alu:[ bundle [ { pass with Job.action = Job.Bin Cdfg.Op.Add } ] ] () ] );
    ( "empty bundle",
      "executes no micro-op",
      [ cycle ~alu:[ bundle [] ] () ] );
    (* Where a job breaks two rules, the fault named is the first the
       simulator checks: these pin that order. *)
    ( "write-back into a simulated cycle",
      "write-backs scheduled past the end of the job",
      [ cycle (); cycle ~alu:[ bundle ~writes:[ write_at 0 (loc 0) ] [ pass ] ] () ] );
    ( "bank conflict before read port",
      "register-bank write-port conflict",
      [ cycle ~moves:[ move (loc 0); move ~index:1 (loc 1) ] () ] );
    ( "lanes before banks",
      "cycle 0: 11 crossbar transfers exceed 10 lanes",
      [ cycle ~moves:(List.init 11 (fun i -> move ~index:(i mod 4) (loc i))) () ] );
    ( "duplicate PP before range",
      "two bundles on one ALU",
      [ cycle ~alu:[ bundle ~pp:7 [ pass ]; bundle ~pp:7 [ pass ] ] () ] );
    ( "race before write port",
      "two writes race on one cell",
      [ cycle ~alu:[ bundle ~writes:[ write_at 0 (loc 0); write_at 0 (loc 0) ] [ pass ] ] () ] );
  ]

(* The hand-built job itself runs: what faults is the one thing changed. *)
let test_tiny_job_runs () =
  let memory, _ =
    Sim.run
      (tiny_job
         [ cycle ~moves:[ move (loc 0) ] ();
           cycle ~alu:[ bundle ~writes:[ write_at 1 (loc 0) ] [ pass ] ] () ])
  in
  Alcotest.(check (option (list int))) "the bundle's value lands" (Some [ 7 ])
    (Option.map Array.to_list (List.assoc_opt "r" memory))

let test_variants_conform () =
  List.iter
    (fun (v : Baseline.variant) ->
      let k = Fpfa_kernels.Kernels.dct4 in
      let result = Baseline.map_source v k.Fpfa_kernels.Kernels.source in
      Alcotest.(check bool)
        (v.Baseline.vname ^ " conforms")
        true
        (Sim.conforms ~memory_init:k.Fpfa_kernels.Kernels.inputs
           result.Fpfa_core.Flow.job))
    Baseline.all

let suite =
  [
    Alcotest.test_case "kernel conformance" `Quick test_kernel_conformance;
    Alcotest.test_case "trace counts" `Quick test_trace_counts;
    Alcotest.test_case "unseeded zero" `Quick test_unseeded_inputs_read_zero;
    Alcotest.test_case "fault: two bundles" `Quick test_fault_two_bundles_one_pp;
    Alcotest.test_case "fault: read port" `Quick test_fault_read_port_conflict;
    Alcotest.test_case "fault: bus overflow" `Quick test_fault_bus_overflow;
    Alcotest.test_case "fault: write race" `Quick test_fault_write_race;
    Alcotest.test_case "fault: missing source" `Quick test_fault_missing_port_source;
    Alcotest.test_case "fault: deleted read" `Quick test_deleted_read_faults;
    Alcotest.test_case "variants conform" `Quick test_variants_conform;
    Alcotest.test_case "hand-built job runs" `Quick test_tiny_job_runs;
  ]
  @ List.map
      (fun (name, says, cycles) ->
        Alcotest.test_case ("fault: " ^ name) `Quick (expect_fault ~says cycles))
      hand_built_faults
