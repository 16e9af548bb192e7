(* Unit tests for the tile simulator, including fault injection: a tampered
   job must be rejected, proving the simulator really checks constraints.
   The allocation rules live in the simulator's walk, with two entry
   points: every faulting job here also checks that [Sim.check_diags]
   reports the fault as its first error. *)

module Arch = Fpfa_arch.Arch
module D = Fpfa_diag.Diag
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

(* The fault a run raises, if any, after checking that the walk's
   reporting side agrees: [check_diags] has an error exactly when the run
   faults, and its first error reads the fault. *)
let fault_of job =
  let first =
    match D.errors (Sim.check_diags job) with
    | d :: _ -> Some d.D.message
    | [] -> None
  in
  let fault =
    match Sim.run job with
    | exception Sim.Fault msg -> Some msg
    | _ -> None
  in
  Alcotest.(check (option string)) "first error of check_diags" fault first;
  fault

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
  if fault_of bad = None then Alcotest.fail "duplicate bundle accepted"

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
  if fault_of bad = None then Alcotest.fail "read-port conflict accepted"

let test_fault_bus_overflow () =
  let tile = Arch.with_buses 1 Arch.paper_tile in
  let job, _ = job_for Fpfa_kernels.Kernels.fir_paper in
  (* shrink the tile under the job's feet: the simulator must notice *)
  let bad = { job with Job.tile } in
  (* jobs with <=1 transfer per cycle would legitimately pass; the FIR
     job has cycles with several transfers *)
  if fault_of bad = None then Alcotest.fail "bus overflow accepted"

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
  if fault_of bad = None then Alcotest.fail "write race accepted"

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
  if fault_of bad = None then Alcotest.fail "missing port source accepted"

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
  if fault_of job = None then Alcotest.fail "read of deleted word accepted"

(* {2 Hand-built faults}

   Each job below is valid but for one thing, so the fault it raises is
   the check under test. *)

(* A one-region job on the paper tile running [cycles]; region [r] holds
   [size] words over [slices] (one word at address 0 by default). *)
let tiny_job ?(size = 1) ?(slices = [ { Job.mpp = 0; mem = 0; addr = 0 } ]) cycles =
  let g = Cdfg.Graph.create "t" in
  Cdfg.Graph.declare_region g "r" { Cdfg.Graph.size = Some size; implicit = true };
  let ss = Cdfg.Graph.add g (Cdfg.Graph.Ss_in "r") [] in
  ignore (Cdfg.Graph.add g (Cdfg.Graph.Ss_out "r") [ ss ]);
  {
    Job.tile = Arch.paper_tile;
    graph = g;
    cycles = Array.of_list cycles;
    region_homes = [ ("r", slices) ];
    region_sizes = [ ("r", size) ];
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

let expect_fault_in ~says job =
  match fault_of job with
  | Some msg ->
    if not (contains ~sub:says msg) then
      Alcotest.failf "fault %S does not say %S" msg says
  | None -> Alcotest.failf "a job that should fault with %S ran" says

let expect_fault ~says cycles () = expect_fault_in ~says (tiny_job cycles)

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

(* Rules that only one of the simulator and the old static checker held
   before the two became one walk. *)
let layout_faults =
  [
    ( "interleaved cell past memory",
      (* offset 2 lands at address 512 of the first slice *)
      "memory location out of range: PP0.MEM1[512]",
      tiny_job ~size:4 ~slices:[ loc 511; loc ~mem:1 0 ] [ cycle () ] );
    ( "slice base no cell reaches",
      "memory location out of range: PP0.MEM2[600]",
      tiny_job ~size:1 ~slices:[ loc 0; loc ~mem:1 600 ] [ cycle () ] );
    ( "region without a home",
      "region r has no home",
      tiny_job ~slices:[] [ cycle () ] );
    ( "unread port register",
      "register out of range: PP0.a4",
      tiny_job
        [ cycle ~alu:[ { (bundle [ pass ]) with Job.port_regs = [ (1, reg 4) ] } ] () ] );
  ]

(* The reporting side walks on past a finding and reports every one, in
   walk order, anchored to its cycle. *)
let test_every_finding () =
  let job =
    tiny_job
      [ cycle ();
        cycle ~alu:[ bundle ~pp:7 [ pass ]; bundle ~pp:7 ~writes:[ write_at 0 (loc 0) ] [] ] () ]
  in
  let diags = Sim.check_diags job in
  Alcotest.(check (list (triple string (option int) string)))
    "findings"
    [ ("alloc.pp-conflict", Some 1, "cycle 1: two bundles on one ALU");
      ("alloc.pp-conflict", Some 1, "cycle 1: PP 7 out of range");
      ("alloc.pp-conflict", Some 1, "cycle 1: PP 7 out of range");
      ("alloc.bundle", Some 1, "cluster 0 executes no micro-op");
      ("alloc.write-conflict", None, "write-backs scheduled past the end of the job") ]
    (List.map (fun (d : D.t) -> (d.D.rule, d.D.node, d.D.message)) diags);
  Alcotest.(check bool) "all errors" true (List.length (D.errors diags) = List.length diags)

(* {2 Random tampering}

   One move, copy, write, forward, delete or micro-op of a corpus job is
   dropped, duplicated or retargeted. Whatever the tampered job breaks,
   the two entry points of the one rule set must agree on it. The jobs
   come from the paper's allocator and from the variants that forward
   results and interleave regions. *)

let corpus_jobs =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (v : Baseline.variant) ->
            List.map
              (fun (k : Fpfa_kernels.Kernels.t) ->
                ( (Baseline.map_source v k.Fpfa_kernels.Kernels.source).Fpfa_core.Flow.job,
                  k.Fpfa_kernels.Kernels.inputs ))
              Fpfa_kernels.Kernels.all)
          [ Baseline.paper; Baseline.with_forwarding; Baseline.interleaved ]))

type edit = Drop | Duplicate | Retarget of int

(* Applies [edit] to the [n]th item of one kind, counting in cycle order;
   [lists] maps a function over every list of that kind in one cycle. *)
let tamper_nth lists retarget edit n (job : Job.t) =
  let total = ref 0 in
  Array.iter
    (fun c -> ignore (lists (fun xs -> total := !total + List.length xs; xs) c))
    job.Job.cycles;
  if !total = 0 then job
  else begin
    let n = n mod !total and seen = ref 0 in
    let edit_list xs =
      let base = !seen in
      seen := base + List.length xs;
      List.concat
        (List.mapi
           (fun i x ->
             if base + i <> n then [ x ]
             else
               match edit with
               | Drop -> []
               | Duplicate -> [ x; x ]
               | Retarget k -> [ retarget k x ])
           xs)
    in
    { job with Job.cycles = Array.map (lists edit_list) job.Job.cycles }
  end

let on_works f (c : Job.cycle) = { c with Job.alu = List.map f c.Job.alu }

(* [k] picks the field and its new value; the ranges reach just past the
   paper tile's registers (4 per bank) and words (512 per memory). *)
let shift_addr k (l : Job.mem_loc) = { l with Job.addr = k / 4 mod 520 }
let shift_index k (r : Job.reg) = { r with Job.index = k / 4 mod 5 }

let tampered (kernel, kind, edit, k, n) =
  let jobs = Lazy.force corpus_jobs in
  let job, memory_init = jobs.(kernel mod Array.length jobs) in
  let edit = match edit with 0 -> Drop | 1 -> Duplicate | _ -> Retarget k in
  let job =
    match kind with
    | 0 ->
      tamper_nth
        (fun f (c : Job.cycle) -> { c with Job.moves = f c.Job.moves })
        (fun k (mv : Job.move) ->
          match k mod 3 with
          | 0 -> { mv with Job.src = shift_addr k mv.Job.src }
          | 1 -> { mv with Job.dst = shift_index k mv.Job.dst }
          | _ -> { mv with Job.src = { mv.Job.src with Job.mem = 1 - mv.Job.src.Job.mem } })
        edit n job
    | 1 ->
      tamper_nth
        (fun f (c : Job.cycle) -> { c with Job.copies = f c.Job.copies })
        (fun k (cp : Job.copy) ->
          if k mod 2 = 0 then { cp with Job.csrc = shift_addr k cp.Job.csrc }
          else { cp with Job.cdst = shift_addr k cp.Job.cdst })
        edit n job
    | 2 ->
      tamper_nth
        (fun f -> on_works (fun w -> { w with Job.writes = f w.Job.writes }))
        (fun k (wr : Job.write) ->
          if k mod 2 = 0 then { wr with Job.target = shift_addr k wr.Job.target }
          else { wr with Job.wcycle = wr.Job.wcycle + (k / 2 mod 5) - 2 })
        edit n job
    | 3 ->
      tamper_nth
        (fun f -> on_works (fun w -> { w with Job.reg_dests = f w.Job.reg_dests }))
        (fun k (cycle, r) ->
          if k mod 2 = 0 then (cycle + (k / 2 mod 3) - 1, r) else (cycle, shift_index k r))
        edit n job
    | 4 ->
      tamper_nth
        (fun f (c : Job.cycle) -> { c with Job.deletes = f c.Job.deletes })
        (fun k (d : Job.delete_work) ->
          if k mod 2 = 0 then { d with Job.dloc = shift_addr k d.Job.dloc }
          else { d with Job.dcycle = d.Job.dcycle + (k / 2 mod 5) - 3 })
        edit n job
    | _ ->
      tamper_nth
        (fun f -> on_works (fun w -> { w with Job.micros = f w.Job.micros }))
        (fun k (m : Job.micro) ->
          match (k mod 3, m.Job.args) with
          | 0, _ :: rest -> { m with Job.args = Job.Port (k / 3 mod 5) :: rest }
          | 1, _ :: rest -> { m with Job.args = Job.Node (k / 3 mod 64) :: rest }
          | _ -> { m with Job.action = Job.Pass })
        edit n job
  in
  (job, memory_init)

let tamper_agrees =
  QCheck.Test.make ~name:"tampered jobs agree" ~count:400
    QCheck.(
      tup5 (int_bound 1000) (int_bound 5) (int_bound 2) (int_bound 10_000)
        (int_bound 100_000))
    (fun case ->
      let job, memory_init = tampered case in
      let first =
        match D.errors (Sim.check_diags job) with
        | d :: _ -> Some d.D.message
        | [] -> None
      in
      match Sim.run ~memory_init job with
      | exception Sim.Fault msg -> first = Some msg
      | _ -> first = None)

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
    Alcotest.test_case "every finding" `Quick test_every_finding;
    QCheck_alcotest.to_alcotest tamper_agrees;
  ]
  @ List.map
      (fun (name, says, cycles) ->
        Alcotest.test_case ("fault: " ^ name) `Quick (expect_fault ~says cycles))
      hand_built_faults
  @ List.map
      (fun (name, says, job) ->
        Alcotest.test_case ("fault: " ^ name) `Quick (fun () -> expect_fault_in ~says job))
      layout_faults
