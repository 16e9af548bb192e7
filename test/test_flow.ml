(* Integration + property tests for the end-to-end flow. *)

module Flow = Fpfa_core.Flow
module Metrics = Mapping.Metrics

let test_all_kernels_verify () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let result = Flow.map_source k.Fpfa_kernels.Kernels.source in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " verifies")
        true
        (Flow.verify ~memory_init:k.Fpfa_kernels.Kernels.inputs result))
    Fpfa_kernels.Kernels.all

let test_all_variants_verify () =
  let k = Fpfa_kernels.Kernels.fir ~taps:8 in
  List.iter
    (fun (v : Baseline.variant) ->
      let result = Baseline.map_source v k.Fpfa_kernels.Kernels.source in
      Alcotest.(check bool)
        (v.Baseline.vname ^ " verifies")
        true
        (Flow.verify ~memory_init:k.Fpfa_kernels.Kernels.inputs result))
    Baseline.all

(* The interpreter leg of `fpfa_map compile`'s verification line: every
   kernel's tile memory matches the reference interpreter, and a job
   checked against another program, or against a program the interpreter
   faults on, does not. *)
let test_kernels_conform_to_interp () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let result = Flow.map_source k.Fpfa_kernels.Kernels.source in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " matches the interpreter")
        true
        (Flow.conforms_to_interp ~memory_init:k.Fpfa_kernels.Kernels.inputs
           result))
    Fpfa_kernels.Kernels.all

let test_interp_catches_mismatch () =
  let memory_init = [ ("x", [| 3; 4 |]) ] in
  let result = Flow.map_source "void main() { y[0] = x[0] + 1; }" in
  Alcotest.(check bool) "own source" true
    (Flow.conforms_to_interp ~memory_init result);
  Alcotest.(check bool) "evaluator and simulator agree" true
    (Flow.verify ~memory_init result);
  Alcotest.(check bool) "another program" false
    (Flow.conforms_to_interp ~memory_init
       { result with Flow.source = "void main() { y[0] = x[0] + 2; }" });
  Alcotest.(check bool) "interpreter fault" false
    (Flow.conforms_to_interp ~memory_init
       { result with Flow.source = "void main() { y[0] = x[0 - 1]; }" })

let test_deterministic () =
  let k = Fpfa_kernels.Kernels.dct4 in
  let r1 = Flow.map_source k.Fpfa_kernels.Kernels.source in
  let r2 = Flow.map_source k.Fpfa_kernels.Kernels.source in
  Alcotest.(check int) "same cycles" r1.Flow.metrics.Metrics.cycles
    r2.Flow.metrics.Metrics.cycles;
  Alcotest.(check int) "same moves" r1.Flow.metrics.Metrics.moves
    r2.Flow.metrics.Metrics.moves

let test_speedup_over_sequential () =
  (* Section VII: "high performance by exploiting maximum parallelism" —
     on a wide kernel the 5-PP tile must beat the 1-ALU tile. *)
  let k = Fpfa_kernels.Kernels.clip ~n:6 in
  let paper = Baseline.map_source Baseline.paper k.Fpfa_kernels.Kernels.source in
  let seq =
    Baseline.map_source Baseline.sequential k.Fpfa_kernels.Kernels.source
  in
  Alcotest.(check bool) "tile beats sequential" true
    (paper.Flow.metrics.Metrics.cycles < seq.Flow.metrics.Metrics.cycles)

let test_locality_saves_energy () =
  (* Section VII: "low power consumption by locality of reference". *)
  let k = Fpfa_kernels.Kernels.vector_scale ~n:8 in
  let local = Baseline.map_source Baseline.paper k.Fpfa_kernels.Kernels.source in
  let scattered =
    Baseline.map_source Baseline.no_locality k.Fpfa_kernels.Kernels.source
  in
  Alcotest.(check bool) "locality ratio higher" true
    (local.Flow.metrics.Metrics.locality
    > scattered.Flow.metrics.Metrics.locality);
  Alcotest.(check bool) "energy lower" true
    (local.Flow.metrics.Metrics.energy < scattered.Flow.metrics.Metrics.energy)

let test_datapath_clustering_beats_unit_ops () =
  let k = Fpfa_kernels.Kernels.fir ~taps:16 in
  let paper = Baseline.map_source Baseline.paper k.Fpfa_kernels.Kernels.source in
  let unit =
    Baseline.map_source Baseline.unit_ops k.Fpfa_kernels.Kernels.source
  in
  Alcotest.(check bool) "fused clusters take fewer cycles" true
    (paper.Flow.metrics.Metrics.cycles <= unit.Flow.metrics.Metrics.cycles);
  Alcotest.(check bool) "and fewer memory writes" true
    (paper.Flow.metrics.Metrics.mem_writes < unit.Flow.metrics.Metrics.mem_writes)

let test_flow_errors () =
  let expect source =
    match Flow.map_source source with
    | exception Flow.Flow_error _ -> ()
    | _ -> Alcotest.fail ("expected flow error: " ^ source)
  in
  expect "void main() { x = ; }";
  (* syntax *)
  expect "void main() { x = foo(1); }";
  (* sema *)
  expect "void main() { while (u) { x = 1; } }";
  (* residual loop *)
  expect "void main() { x = a[u]; }";
  (* dynamic offset *)
  expect "int main() { if (c) { return 1; } return 0; }"

let test_missing_function () =
  match Flow.map_source ~func:"nope" "void main() { x = 1; }" with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "missing function accepted"

let test_map_graph_entry () =
  let g = Fpfa_kernels.Random_graph.generate ~seed:3 ~ops:30 () in
  let result = Flow.map_graph g in
  let memory_init = Fpfa_kernels.Random_graph.random_inputs g in
  Alcotest.(check bool) "random graph maps and conforms" true
    (Fpfa_sim.Sim.conforms ~memory_init result.Flow.job)

let test_unroll_budget_respected () =
  let config = { Flow.default_config with Flow.max_unroll = 4 } in
  match
    Flow.map_source ~config
      "void main() { s = 0; for (i = 0; i < 100; i++) { s = s + i; } }"
  with
  | exception Flow.Flow_error _ -> ()
  | _ -> Alcotest.fail "unroll budget ignored"

(* {2 Staged compilation} *)

module Staged = Flow.Staged
module Arch = Fpfa_arch.Arch

let job_bytes (r : Flow.result) = Mapping.Encode.to_string r.Flow.job
let source_of name = (Fpfa_kernels.Kernels.find name).Fpfa_kernels.Kernels.source

let phase_name = function
  | Some s -> Staged.phase_name (Staged.phase s)
  | None -> "none"

(* From a finished corpus checkpoint, each knob on its own re-enters at
   the phase [Staged.rewind] documents, and the rewound run maps to the
   bytes of a cold compile under the new config. *)
let test_rewind_reentry () =
  let source = source_of "mavg-4-6" in
  let base = Staged.run (Staged.of_source ~config:Flow.default_config source) in
  Alcotest.(check string) "base" "allocated" (phase_name (Some base));
  let d = Flow.default_config in
  let cases =
    [
      ("window", { d with Flow.tile = Arch.with_move_window 2 d.Flow.tile }, "scheduled");
      ("buses", { d with Flow.tile = Arch.with_buses 4 d.Flow.tile }, "scheduled");
      ( "alloc_options",
        {
          d with
          Flow.alloc_options =
            { d.Flow.alloc_options with Mapping.Alloc.forwarding = true };
        },
        "scheduled" );
      ("alus", { d with Flow.tile = Arch.with_alu_count 3 d.Flow.tile }, "clustered");
      ("caps", { d with Flow.caps = Some Arch.unit_alu }, "minimised");
      ( "cluster_with",
        { d with Flow.cluster_with = (fun ~caps g -> Mapping.Cluster.sarkar ~caps g) },
        "minimised" );
      ("bitopt", { d with Flow.bitopt = false }, "built");
      ("bitopt_width", { d with Flow.bitopt_width = 8 }, "built");
      ("verify_each", { d with Flow.verify_each = true }, "built");
      ("max_unroll", { d with Flow.max_unroll = 100 }, "none");
      ("delete_locals", { d with Flow.delete_locals = true }, "none");
    ]
  in
  List.iter
    (fun (knob, config, want) ->
      let rewound = Staged.rewind base ~config in
      Alcotest.(check string) (knob ^ " re-enters") want (phase_name rewound);
      Option.iter
        (fun s ->
          Alcotest.(check string) (knob ^ " job bytes")
            (job_bytes (Flow.map_source ~config source))
            (job_bytes (Staged.to_result (Staged.run s))))
        rewound)
    cases

(* A [cluster_with] that counts its calls, domain-safely. *)
let counting_cluster () =
  let calls = Atomic.make 0 in
  ((fun ~caps g -> Atomic.incr calls; Mapping.Cluster.run ~caps g), calls)

let tile_at (alus, buses, window) =
  Arch.paper_tile |> Arch.with_alu_count alus |> Arch.with_buses buses
  |> Arch.with_move_window window

(* Tile points leave the ALU data path alone, so the rewinds of one
   minimised checkpoint cluster and validate once; a caps change clusters
   again. A reused clustering records no "cluster" or "cluster-validate"
   span and bumps "flow.cluster_reused". *)
let test_rewinds_reuse_clustering () =
  let source = source_of "fir-16" in
  let cluster_with, calls = counting_cluster () in
  let config = { Flow.default_config with Flow.cluster_with } in
  let base = Staged.advance (Staged.of_source ~config source) in
  Alcotest.(check string) "checkpoint" "minimised" (phase_name (Some base));
  let points =
    [ (3, 2, 1); (4, 4, 2); (5, 10, 4); (8, 16, 6); (3, 16, 3); (5, 6, 1) ]
  in
  let module Obs = Fpfa_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let rewound =
    Fun.protect ~finally:Obs.disable (fun () ->
        List.map
          (fun p ->
            let config = { config with Flow.tile = tile_at p } in
            let s = Option.get (Staged.rewind base ~config) in
            Alcotest.(check string) "tile point re-enters" "minimised"
              (phase_name (Some s));
            (p, job_bytes (Staged.to_result (Staged.run s))))
          points)
  in
  let spans name =
    List.length
      (List.filter
         (fun (sp : Obs.finished_span) ->
           sp.Obs.scat = "flow" && sp.Obs.sname = name)
         (Obs.spans ()))
  in
  let cluster_spans = spans "cluster" and validate_spans = spans "cluster-validate" in
  let reused =
    Option.value ~default:0
      (List.assoc_opt "flow.cluster_reused" (Obs.counters ()))
  in
  Obs.reset ();
  Alcotest.(check int) "clustered once" 1 (Atomic.get calls);
  Alcotest.(check int) "one cluster span" 1 cluster_spans;
  Alcotest.(check int) "one cluster-validate span" 1 validate_spans;
  Alcotest.(check int) "five reuses" 5 reused;
  List.iter
    (fun (p, bytes) ->
      let cold = { Flow.default_config with Flow.tile = tile_at p } in
      Alcotest.(check string) "job bytes"
        (job_bytes (Flow.map_source ~config:cold source))
        bytes)
    rewound;
  let config = { config with Flow.caps = Some Arch.unit_alu } in
  let s = Option.get (Staged.rewind base ~config) in
  ignore (Staged.run s);
  Alcotest.(check int) "a caps change clusters again" 2 (Atomic.get calls)

(* A clustering that breaks the configured data path fails where it is
   computed and is never stored: a later rewind of the same checkpoint
   clusters again and fails again. *)
let test_rejected_clustering_not_shared () =
  let source = source_of "fir-16" in
  let calls = Atomic.make 0 in
  (* paper-ALU clusters, validated against one-op ALUs *)
  let cluster_with ~caps:_ g = Atomic.incr calls; Mapping.Cluster.run g in
  let config =
    { Flow.default_config with Flow.cluster_with; caps = Some Arch.unit_alu }
  in
  let base = Staged.advance (Staged.of_source ~config source) in
  let fails s =
    match Staged.run s with
    | (_ : Staged.t) -> "mapped"
    | exception Flow.Flow_error msg ->
      List.hd (String.split_on_char ':' msg)
  in
  Alcotest.(check string) "first run" "cluster-validate" (fails base);
  let config = { config with Flow.tile = tile_at (3, 2, 1) } in
  let s = Option.get (Staged.rewind base ~config) in
  Alcotest.(check string) "rewind re-enters" "minimised" (phase_name (Some s));
  Alcotest.(check string) "later rewind" "cluster-validate" (fails s);
  Alcotest.(check int) "nothing was shared" 2 (Atomic.get calls)

(* The remap grid from one frozen checkpoint on a 4-domain pool: the
   same bytes as a sequential run, and at most one clustering per
   domain. *)
let remap_grid =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun w -> (a, b, w)) [ 1; 2; 3; 4; 6 ])
        [ 2; 4; 6; 10; 16 ])
    [ 3; 4; 5; 8 ]

let test_pool_rewinds_share_clustering () =
  let source = source_of "fir-16" in
  let grid = remap_grid in
  let sweep pool =
    let cluster_with, calls = counting_cluster () in
    let config = { Flow.default_config with Flow.cluster_with } in
    let base = Staged.advance (Staged.of_source ~config source) in
    Staged.freeze base;
    let bytes =
      Fpfa_exec.Pool.maybe pool
        (fun p ->
          let config = { config with Flow.tile = tile_at p } in
          let s = Option.get (Staged.rewind base ~config) in
          job_bytes (Staged.to_result (Staged.run s)))
        grid
    in
    (bytes, Atomic.get calls)
  in
  let seq, seq_calls = sweep None in
  let par, par_calls =
    Fpfa_exec.Pool.with_pool ~jobs:4 (fun pool -> sweep (Some pool))
  in
  Alcotest.(check int) "sequential clusters once" 1 seq_calls;
  Alcotest.(check bool) "pool clusters at most once per domain" true
    (par_calls >= 1 && par_calls <= 4);
  Alcotest.(check (list string)) "pool bytes = sequential bytes" seq par

(* The same grid: a schedule depends only on the clustering and the ALU
   count, so the 100 rewinds schedule and validate once per ALU count
   sequentially, and at most once per ALU count per domain on a 4-domain
   pool; every other point reuses a stored schedule ("flow.schedule_reused")
   and maps to the same bytes. *)
let test_rewinds_share_schedules () =
  let source = source_of "fir-16" in
  let module Obs = Fpfa_obs.Obs in
  let sweep pool =
    let base = Staged.advance (Staged.of_source ~config:Flow.default_config source) in
    Staged.freeze base;
    Obs.reset ();
    Obs.enable ();
    let bytes =
      Fun.protect ~finally:Obs.disable (fun () ->
          Fpfa_exec.Pool.maybe pool
            (fun p ->
              let config = { Flow.default_config with Flow.tile = tile_at p } in
              let s = Option.get (Staged.rewind base ~config) in
              job_bytes (Staged.to_result (Staged.run s)))
            remap_grid)
    in
    let spans name =
      List.length
        (List.filter
           (fun (sp : Obs.finished_span) -> sp.Obs.scat = "flow" && sp.Obs.sname = name)
           (Obs.spans ()))
    in
    let scheduled = spans "schedule" and validated = spans "schedule-validate" in
    let reused =
      Option.value ~default:0 (List.assoc_opt "flow.schedule_reused" (Obs.counters ()))
    in
    Obs.reset ();
    Alcotest.(check int) "every schedule validated once" scheduled validated;
    Alcotest.(check int) "every other point reuses one" (100 - scheduled) reused;
    (bytes, scheduled)
  in
  let seq, seq_scheduled = sweep None in
  let par, par_scheduled =
    Fpfa_exec.Pool.with_pool ~jobs:4 (fun pool -> sweep (Some pool))
  in
  Alcotest.(check int) "sequential schedules once per ALU count" 4 seq_scheduled;
  Alcotest.(check bool) "pool schedules at most once per ALU count per domain" true
    (par_scheduled >= 4 && par_scheduled <= 16);
  Alcotest.(check (list string)) "pool bytes = sequential bytes" seq par;
  List.iteri
    (fun i p ->
      if i mod 7 = 0 then
        Alcotest.(check string) "reused schedule maps as a cold compile"
          (job_bytes
             (Flow.map_source ~config:{ Flow.default_config with Flow.tile = tile_at p }
                source))
          (List.nth seq i))
    remap_grid

(* A kernel with a scalar input, [g]. The tile holds it as a one-cell
   region; the reference state must seed it as the scalar [main] reads,
   so the interpreter-against-tile check a benchmark makes from
   [Kernels.reference_state] agrees with [Flow.conforms_to_interp]. *)
let test_scalar_kernel_input () =
  let k =
    {
      Fpfa_kernels.Kernels.name = "scale-4";
      description = "y = x * g over four cells";
      source = "void main() { i = 0; while (i < 4) { y[i] = x[i] * g; i = i + 1; } }";
      inputs = [ ("x", [| 1; 2; 3; 4 |]); ("g", [| 5 |]) ];
    }
  in
  let state = Fpfa_kernels.Kernels.reference_state k in
  Alcotest.(check (option (list int))) "reference y" (Some [ 5; 10; 15; 20 ])
    (Option.map Array.to_list (List.assoc_opt "y" state.Cfront.Interp.arrays));
  let memory_init = k.Fpfa_kernels.Kernels.inputs in
  let result = Flow.map_source k.Fpfa_kernels.Kernels.source in
  let memory, _ = Fpfa_sim.Sim.run ~memory_init result.Flow.job in
  Alcotest.(check bool) "tile against the reference state" true
    (Cdfg.Eval.conforms_to_interp ~memory_init state { Cdfg.Eval.memory; named = [] });
  Alcotest.(check bool) "Flow.conforms_to_interp" true
    (Flow.conforms_to_interp ~memory_init result)

(* A tile point over the remap grid's ALU and window ranges, with a
   one-bus crossbar and the widest one a tile can have among the bus
   counts. *)
let tile_point =
  QCheck.make
    ~print:(fun (a, b, w) -> Printf.sprintf "alus %d, buses %d, window %d" a b w)
    QCheck.Gen.(triple (int_range 3 8) (oneofl [ 1; 2; 16; 255 ]) (int_range 1 6))

(* Property: the complete flow verifies on random mappable programs — the
   headline invariant of the whole library. The reference interpreter, the
   CDFG evaluator before and after minimisation and the tile simulator
   agree (Interp = Eval = Sim) on the default tile and on a drawn tile
   point; the generated programs read scalar inputs as well as arrays. *)
let flow_verifies_random_programs =
  QCheck.Test.make ~name:"flow verifies on random programs" ~count:120
    (QCheck.pair Gen.program tile_point) (fun (program, point) ->
      let source = Cfront.Ast.program_to_string program in
      let minimised =
        Staged.advance (Staged.of_source ~config:Flow.default_config source)
      in
      List.for_all
        (fun config ->
          let result =
            Staged.to_result (Staged.run (Option.get (Staged.rewind minimised ~config)))
          in
          Flow.verify ~memory_init:Gen.memory_init result
          && Flow.conforms_to_interp ~memory_init:Gen.memory_init result)
        [ Flow.default_config; { Flow.default_config with Flow.tile = tile_at point } ])

(* Property: the flow verifies on random DAGs under every variant. *)
let flow_verifies_random_graphs =
  QCheck.Test.make ~name:"all variants verify on random graphs" ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 3_000))
    (fun seed ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:45 () in
      let memory_init = Fpfa_kernels.Random_graph.random_inputs g in
      List.for_all
        (fun (v : Baseline.variant) ->
          let result = Baseline.map_graph v g in
          Fpfa_sim.Sim.conforms ~memory_init result.Flow.job)
        Baseline.all)

let suite =
  [
    Alcotest.test_case "kernels verify" `Quick test_all_kernels_verify;
    Alcotest.test_case "variants verify" `Quick test_all_variants_verify;
    Alcotest.test_case "kernels match the interpreter" `Quick
      test_kernels_conform_to_interp;
    Alcotest.test_case "interpreter mismatch" `Quick test_interp_catches_mismatch;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "speedup" `Quick test_speedup_over_sequential;
    Alcotest.test_case "locality energy" `Quick test_locality_saves_energy;
    Alcotest.test_case "datapath clustering" `Quick test_datapath_clustering_beats_unit_ops;
    Alcotest.test_case "flow errors" `Quick test_flow_errors;
    Alcotest.test_case "missing function" `Quick test_missing_function;
    Alcotest.test_case "map_graph" `Quick test_map_graph_entry;
    Alcotest.test_case "unroll budget" `Quick test_unroll_budget_respected;
    Alcotest.test_case "rewind re-entry" `Quick test_rewind_reentry;
    Alcotest.test_case "rewinds reuse clustering" `Quick
      test_rewinds_reuse_clustering;
    Alcotest.test_case "rejected clustering not shared" `Quick
      test_rejected_clustering_not_shared;
    Alcotest.test_case "pool rewinds share clustering" `Quick
      test_pool_rewinds_share_clustering;
    Alcotest.test_case "rewinds share schedules" `Quick test_rewinds_share_schedules;
    Alcotest.test_case "scalar kernel input" `Quick test_scalar_kernel_input;
    QCheck_alcotest.to_alcotest flow_verifies_random_programs;
    QCheck_alcotest.to_alcotest flow_verifies_random_graphs;
  ]
