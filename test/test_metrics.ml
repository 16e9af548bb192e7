(* Invariant tests for job metrics, plus format robustness (encode fuzzing,
   table/gantt smoke). *)

module Metrics = Mapping.Metrics
module Job = Mapping.Job

let jobs =
  lazy
    (List.map
       (fun (k : Fpfa_kernels.Kernels.t) ->
         (k, (Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source).Fpfa_core.Flow.job))
       Fpfa_kernels.Kernels.all)

let test_metric_invariants () =
  List.iter
    (fun ((k : Fpfa_kernels.Kernels.t), job) ->
      let m = Metrics.of_job job in
      let name = k.Fpfa_kernels.Kernels.name in
      Alcotest.(check bool) (name ^ " cycles positive") true (m.Metrics.cycles > 0);
      Alcotest.(check int) (name ^ " cycle split")
        m.Metrics.cycles
        (m.Metrics.exec_cycles + m.Metrics.inserted_cycles);
      Alcotest.(check int) (name ^ " bus accounting")
        m.Metrics.bus_transfers
        (m.Metrics.moves + m.Metrics.mem_writes + m.Metrics.forwards);
      Alcotest.(check bool) (name ^ " locality in [0,1]") true
        (m.Metrics.locality >= 0.0 && m.Metrics.locality <= 1.0);
      Alcotest.(check bool) (name ^ " utilisation in (0,1]") true
        (m.Metrics.alu_utilisation > 0.0 && m.Metrics.alu_utilisation <= 1.0);
      Alcotest.(check bool) (name ^ " firings >= exec cycles") true
        (m.Metrics.alu_firings >= m.Metrics.exec_cycles);
      Alcotest.(check bool) (name ^ " ops >= firings minus passes") true
        (m.Metrics.alu_ops <= 3 * m.Metrics.alu_firings);
      Alcotest.(check bool) (name ^ " energy positive") true (m.Metrics.energy > 0.0))
    (Lazy.force jobs)

let test_trace_agrees_with_metrics () =
  List.iter
    (fun ((k : Fpfa_kernels.Kernels.t), job) ->
      let m = Metrics.of_job job in
      let _, trace =
        Fpfa_sim.Sim.run ~memory_init:k.Fpfa_kernels.Kernels.inputs job
      in
      Alcotest.(check int)
        (k.Fpfa_kernels.Kernels.name ^ " moves")
        m.Metrics.moves trace.Fpfa_sim.Sim.moves_executed;
      Alcotest.(check int)
        (k.Fpfa_kernels.Kernels.name ^ " writes")
        (m.Metrics.mem_writes + m.Metrics.deletes)
        trace.Fpfa_sim.Sim.writes_executed)
    (Lazy.force jobs)

let test_gantt_renders () =
  let _, job = List.hd (Lazy.force jobs) in
  let text = Format.asprintf "%a" Job.pp_gantt job in
  Alcotest.(check bool) "mentions every PP" true
    (List.for_all
       (fun pp ->
         let needle = Printf.sprintf "PP%d" pp in
         let rec find i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle || find (i + 1))
         in
         find 0)
       [ 0; 1; 2; 3; 4 ])

(* Fuzz: bit-flipped configuration images must decode, raise Corrupt, or
   produce a job whose simulation faults — never crash with anything
   else. The simulator's reporting walk must return on every decoded
   image. *)
let encode_fuzz =
  QCheck.Test.make ~name:"corrupt configs never crash" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 0 255))
    (fun (position, byte) ->
      let _, job = List.hd (Lazy.force jobs) in
      let image = Bytes.of_string (Mapping.Encode.to_string job) in
      let position = position mod Bytes.length image in
      Bytes.set image position (Char.chr byte);
      match Mapping.Encode.of_string (Bytes.to_string image) with
      | job' -> (
        ignore (Fpfa_sim.Sim.check_diags job');
        (* decoded: it must either run or fault cleanly *)
        match Fpfa_sim.Sim.run job' with
        | _ -> true
        | exception Fpfa_sim.Sim.Fault _ -> true
        | exception Cdfg.Eval.Error _ -> true)
      | exception Mapping.Encode.Corrupt _ -> true
      | exception Cdfg.Serialize.Corrupt _ -> true)

let test_bytesio_edges () =
  let w = Fpfa_util.Bytesio.writer () in
  Fpfa_util.Bytesio.u8 w 255;
  Fpfa_util.Bytesio.u16 w 65535;
  Fpfa_util.Bytesio.i32 w (-1);
  Fpfa_util.Bytesio.i64 w min_int;
  Fpfa_util.Bytesio.str w "";
  Fpfa_util.Bytesio.str w (String.make 1000 'x');
  let r = Fpfa_util.Bytesio.reader (Fpfa_util.Bytesio.contents w) in
  Alcotest.(check int) "u8" 255 (Fpfa_util.Bytesio.read_u8 r);
  Alcotest.(check int) "u16" 65535 (Fpfa_util.Bytesio.read_u16 r);
  Alcotest.(check int) "i32" (-1) (Fpfa_util.Bytesio.read_i32 r);
  Alcotest.(check int) "i64" min_int (Fpfa_util.Bytesio.read_i64 r);
  Alcotest.(check string) "empty string" "" (Fpfa_util.Bytesio.read_str r);
  Alcotest.(check int) "long string" 1000
    (String.length (Fpfa_util.Bytesio.read_str r));
  Alcotest.(check bool) "at end" true (Fpfa_util.Bytesio.at_end r);
  (match Fpfa_util.Bytesio.u8 w 256 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "u8 out of range accepted");
  match Fpfa_util.Bytesio.read_u8 r with
  | exception Fpfa_util.Bytesio.Corrupt _ -> ()
  | _ -> Alcotest.fail "read past end accepted"

let suite =
  [
    Alcotest.test_case "metric invariants" `Quick test_metric_invariants;
    Alcotest.test_case "trace agreement" `Quick test_trace_agrees_with_metrics;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    Alcotest.test_case "bytesio edges" `Quick test_bytesio_edges;
    QCheck_alcotest.to_alcotest encode_fuzz;
  ]
