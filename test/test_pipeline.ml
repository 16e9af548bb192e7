(* Unit tests for multi-configuration pipelines. *)

module Pipeline = Fpfa_core.Pipeline

let dsp_source =
  {|
void analyze() {
  peak = 0;
  for (i = 0; i < 8; i++) { peak = max(peak, abs(sig[i])); }
}
void normalize() {
  for (i = 0; i < 8; i++) {
    scaled[i] = (sig[i] << 4) / max(peak, 1);
  }
}
void smooth() {
  for (i = 0; i < 6; i++) {
    out[i] = (scaled[i] + scaled[i + 1] + scaled[i + 2]) / 3;
  }
}
|}

let dsp_inputs = [ ("sig", [| 4; -8; 15; -16; 23; -42; 7; 2 |]) ]
let dsp_stages = [ "analyze"; "normalize"; "smooth" ]

let test_three_stage_dsp () =
  Alcotest.(check bool) "verifies" true
    (Pipeline.verify ~memory_init:dsp_inputs dsp_source ~funcs:dsp_stages)

let test_region_handover () =
  let pipeline = Pipeline.map dsp_source ~funcs:dsp_stages in
  let final = Pipeline.run ~memory_init:dsp_inputs pipeline in
  (* peak computed in stage 1 must reach stage 2's division *)
  Alcotest.(check (option (list int))) "peak" (Some [ 42 ])
    (Option.map Array.to_list (List.assoc_opt "peak" final));
  Alcotest.(check (option (list int))) "scaled"
    (Some [ 1; -3; 5; -6; 8; -16; 2; 0 ])
    (Option.map Array.to_list (List.assoc_opt "scaled" final))

let test_costs_populated () =
  let pipeline = Pipeline.map dsp_source ~funcs:dsp_stages in
  Alcotest.(check int) "three stages" 3 (List.length pipeline.Pipeline.stages);
  List.iter
    (fun (s : Pipeline.stage) ->
      Alcotest.(check bool) "config words" true (s.Pipeline.config_words > 0);
      Alcotest.(check bool) "reconfig cycles consistent" true
        (s.Pipeline.reconfig_cycles
        = (s.Pipeline.config_words + Pipeline.config_words_per_cycle - 1)
          / Pipeline.config_words_per_cycle))
    pipeline.Pipeline.stages;
  Alcotest.(check int) "totals add up"
    pipeline.Pipeline.total_compute_cycles
    (Fpfa_util.Listx.sum
       (List.map (fun (s : Pipeline.stage) -> s.Pipeline.compute_cycles)
          pipeline.Pipeline.stages))

let test_single_stage_equals_flow () =
  let source = Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source in
  let memory_init = Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.inputs in
  Alcotest.(check bool) "single-stage pipeline verifies" true
    (Pipeline.verify ~memory_init source ~funcs:[ "main" ])

let test_stage_order_matters () =
  (* running normalize before analyze divides by max(0,1)=1 *)
  let forward = Pipeline.run ~memory_init:dsp_inputs
      (Pipeline.map dsp_source ~funcs:[ "analyze"; "normalize" ])
  in
  let backward = Pipeline.run ~memory_init:dsp_inputs
      (Pipeline.map dsp_source ~funcs:[ "normalize"; "analyze" ])
  in
  Alcotest.(check bool) "different scaled results" false
    (List.assoc "scaled" forward = List.assoc "scaled" backward);
  (* and the reference agrees with the tile in both orders *)
  Alcotest.(check bool) "backward verifies too" true
    (Pipeline.verify ~memory_init:dsp_inputs dsp_source
       ~funcs:[ "normalize"; "analyze" ])

let test_repeated_stage () =
  let source = "void bump() { for (k = 0; k < 4; k++) { v[k] = v[k] + 1; } }" in
  let memory_init = [ ("v", [| 0; 10; 20; 30 |]) ] in
  let pipeline = Pipeline.map source ~funcs:[ "bump"; "bump"; "bump" ] in
  let final = Pipeline.run ~memory_init pipeline in
  Alcotest.(check (option (list int))) "applied three times"
    (Some [ 3; 13; 23; 33 ])
    (Option.map Array.to_list (List.assoc_opt "v" final));
  Alcotest.(check bool) "verifies" true
    (Pipeline.verify ~memory_init source ~funcs:[ "bump"; "bump"; "bump" ])

let test_errors () =
  (match Pipeline.map dsp_source ~funcs:[] with
  | exception Pipeline.Pipeline_error _ -> ()
  | _ -> Alcotest.fail "empty pipeline accepted");
  (match Pipeline.map dsp_source ~funcs:[ "missing" ] with
  | exception Pipeline.Pipeline_error _ -> ()
  | _ -> Alcotest.fail "missing stage accepted");
  match Pipeline.map "void f() { while (u) { x = 1; } }" ~funcs:[ "f" ] with
  | exception Pipeline.Pipeline_error _ -> ()
  | _ -> Alcotest.fail "unmappable stage accepted"

let test_pipeline_with_calls () =
  let source =
    {|
int weight(int v) { return v * 3 - 1; }
void stage1() { for (i = 0; i < 4; i++) { t[i] = weight(x[i]); } }
void stage2() { s = 0; for (i = 0; i < 4; i++) { s = s + t[i]; } }
|}
  in
  let memory_init = [ ("x", [| 1; 2; 3; 4 |]) ] in
  Alcotest.(check bool) "inlined stages verify" true
    (Pipeline.verify ~memory_init source ~funcs:[ "stage1"; "stage2" ])

let test_reuse_pipeline () =
  (* each stage's counted loop becomes one reusable configuration *)
  let reuse = Pipeline.map_reuse dsp_source ~funcs:dsp_stages in
  Alcotest.(check int) "three stages" 3 (List.length reuse.Pipeline.rstages);
  List.iter
    (fun (s : Pipeline.reuse_stage) ->
      match s.Pipeline.outcome with
      | Fpfa_core.Loop_flow.Looped staged ->
        Alcotest.(check bool)
          (s.Pipeline.rname ^ " has a reused loop")
          true
          (Fpfa_core.Loop_flow.loops staged <> [])
      | Fpfa_core.Loop_flow.Unrolled _ ->
        Alcotest.fail (s.Pipeline.rname ^ " unexpectedly unrolled"))
    reuse.Pipeline.rstages;
  Alcotest.(check bool) "verifies" true
    (Pipeline.verify_reuse ~memory_init:dsp_inputs dsp_source
       ~funcs:dsp_stages)

let test_reuse_shrinks_configs () =
  let flat = Pipeline.map dsp_source ~funcs:dsp_stages in
  let reuse = Pipeline.map_reuse dsp_source ~funcs:dsp_stages in
  let flat_words =
    Fpfa_util.Listx.sum
      (List.map (fun (s : Pipeline.stage) -> s.Pipeline.config_words)
         flat.Pipeline.stages)
  in
  let reuse_words =
    Fpfa_util.Listx.sum
      (List.map (fun (s : Pipeline.reuse_stage) -> s.Pipeline.rconfig_words)
         reuse.Pipeline.rstages)
  in
  Alcotest.(check bool) "reuse configs smaller" true (reuse_words < flat_words);
  (* and both compute the same result *)
  let a = Pipeline.run ~memory_init:dsp_inputs flat in
  let b = Pipeline.run_reuse ~memory_init:dsp_inputs reuse in
  Alcotest.(check bool) "same scaled" true
    (List.assoc "scaled" a = List.assoc "scaled" b)

(* Span names are fixed, so `--stats` aggregates one row per kind of
   pipeline work; the function or stage name rides in the span's args. *)
let test_span_names () =
  let module Obs = Fpfa_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let pipeline = Pipeline.map dsp_source ~funcs:dsp_stages in
        ignore (Pipeline.run ~memory_init:dsp_inputs pipeline);
        ignore (Pipeline.map_reuse dsp_source ~funcs:dsp_stages);
        List.filter_map
          (fun (sp : Obs.finished_span) ->
            if sp.Obs.scat <> "pipeline" then None
            else
              let arg =
                match sp.Obs.sargs with
                | [ (key, Obs.Str v) ] -> key ^ "=" ^ v
                | _ -> "?"
              in
              Some (sp.Obs.sname ^ " " ^ arg))
          (Obs.spans ()))
  in
  let expect name key =
    List.map (fun stage -> Printf.sprintf "%s %s=%s" name key stage) dsp_stages
  in
  Alcotest.(check (list string)) "one fixed name per kind of work"
    (List.sort compare
       (expect "map" "func" @ expect "run" "stage" @ expect "map-reuse" "func"))
    (List.sort compare spans)

let suite =
  [
    Alcotest.test_case "three-stage dsp" `Quick test_three_stage_dsp;
    Alcotest.test_case "region handover" `Quick test_region_handover;
    Alcotest.test_case "costs" `Quick test_costs_populated;
    Alcotest.test_case "single stage" `Quick test_single_stage_equals_flow;
    Alcotest.test_case "order matters" `Quick test_stage_order_matters;
    Alcotest.test_case "repeated stage" `Quick test_repeated_stage;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "stages with calls" `Quick test_pipeline_with_calls;
    Alcotest.test_case "reuse pipeline" `Quick test_reuse_pipeline;
    Alcotest.test_case "reuse shrinks" `Quick test_reuse_shrinks_configs;
    Alcotest.test_case "span names" `Quick test_span_names;
  ]
