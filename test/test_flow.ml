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

(* Property: the complete flow verifies on random mappable programs — the
   headline invariant of the whole library. *)
let flow_verifies_random_programs =
  QCheck.Test.make ~name:"flow verifies on random programs" ~count:120
    Gen.program (fun program ->
      let source = Cfront.Ast.program_to_string program in
      let result = Flow.map_source source in
      Flow.verify ~memory_init:Gen.memory_init result)

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
    QCheck_alcotest.to_alcotest flow_verifies_random_programs;
    QCheck_alcotest.to_alcotest flow_verifies_random_graphs;
  ]
