(* Unit tests for loop mapping by configuration reuse (paper Section VII
   future work). *)

module Loop_flow = Fpfa_core.Loop_flow
module Parametric = Mapping.Parametric

let inputs =
  [
    ("x", Array.init 16 (fun i -> i - 5));
    ("y", Array.init 16 (fun i -> 2 * i));
    ("a", Array.init 16 (fun i -> i + 1));
    ("c", Array.init 16 (fun i -> 10 * (i + 1)));
  ]

let expect_looped source =
  match Loop_flow.map_source source with
  | Loop_flow.Looped staged -> staged
  | Loop_flow.Unrolled (_, reason) ->
    Alcotest.fail ("expected looped mapping, fell back: " ^ reason)

let expect_fallback source =
  match Loop_flow.map_source source with
  | Loop_flow.Unrolled (_, reason) -> reason
  | Loop_flow.Looped _ -> Alcotest.fail "expected fallback"

let check_verified source =
  let outcome = Loop_flow.map_source source in
  Alcotest.(check bool) "verifies" true
    (Loop_flow.verify ~memory_init:inputs source outcome)

let test_elementwise_loops_map () =
  let staged =
    expect_looped
      "void main() { for (i = 0; i < 16; i++) { out[i] = 3 * x[i] + 1; } }"
  in
  (match Loop_flow.loops staged with
  | [ l ] ->
    Alcotest.(check int) "16 trips" 16 l.Loop_flow.trips;
    Alcotest.(check bool) "has strides" true
      (Parametric.stride_count l.Loop_flow.body > 0)
  | _ -> Alcotest.fail "expected one loop segment");
  check_verified
    "void main() { for (i = 0; i < 16; i++) { out[i] = 3 * x[i] + 1; } }"

let test_reduction_loops_map () =
  (* loop-carried accumulator travels through its memory cell *)
  let source =
    "void main() { sum = 0; for (i = 0; i < 16; i++) { sum = sum + a[i] * c[i]; } }"
  in
  ignore (expect_looped source);
  let outcome = Loop_flow.map_source source in
  Alcotest.(check bool) "verifies" true
    (Loop_flow.verify ~memory_init:inputs source outcome);
  (* the final memory really holds the dot product *)
  match Loop_flow.map_source source with
  | Loop_flow.Looped staged ->
    let final = Loop_flow.run ~memory_init:inputs staged in
    let expected = ref 0 in
    let a = List.assoc "a" inputs and c = List.assoc "c" inputs in
    Array.iteri (fun i ai -> expected := !expected + (ai * c.(i))) a;
    Alcotest.(check (option (list int))) "sum" (Some [ !expected ])
      (Option.map Array.to_list (List.assoc_opt "sum" final))
  | Loop_flow.Unrolled _ -> Alcotest.fail "should loop"

let test_linear_counter_use_maps () =
  check_verified
    "void main() { for (i = 0; i < 12; i++) { out[i] = x[i] * 2 + i; } }";
  ignore
    (expect_looped
       "void main() { for (i = 0; i < 12; i++) { out[i] = x[i] * 2 + i; } }")

let test_strided_access_maps () =
  ignore
    (expect_looped
       "void main() { for (i = 0; i < 8; i++) { out[i] = x[2 * i]; } }");
  check_verified
    "void main() { for (i = 0; i < 8; i++) { out[i] = x[2 * i]; } }"

let test_nonlinear_counter_falls_back () =
  let reason =
    expect_fallback
      "void main() { for (i = 0; i < 12; i++) { out[i] = i * i; } }"
  in
  Alcotest.(check bool) "reason mentions validation or isomorphism" true
    (String.length reason > 0);
  check_verified "void main() { for (i = 0; i < 12; i++) { out[i] = i * i; } }"

(* The two parametrised iterations of this body map to jobs of different
   shape, so the parametric job addresses a cell off the tile: validation
   must reject it and unroll, not let the simulator's fault escape. *)
let test_off_tile_parametric_job_falls_back () =
  let source =
    "void main() { li = 0; while (li < 5) { arr1[li] = arr1[2]; arr1[li] = \
     ((s2 ? arr0[6] : 7) ? max(s1, outp[5]) : (1 ? arr1[3] : outp[3])); s2 \
     = (~(3 >= 3)); li = li + 1; } }"
  in
  ignore (expect_fallback source);
  Alcotest.(check bool) "verifies" true
    (Loop_flow.verify ~memory_init:Gen.memory_init source
       (Loop_flow.map_source source))

let test_no_loop_falls_back () =
  let reason = expect_fallback "void main() { x = a[0] + a[1]; }" in
  Alcotest.(check bool) "mentions no loop" true
    (String.length reason > 0)

let test_small_trip_falls_back () =
  ignore
    (expect_fallback
       "void main() { for (i = 0; i < 2; i++) { out[i] = x[i]; } }");
  check_verified "void main() { for (i = 0; i < 2; i++) { out[i] = x[i]; } }"

let test_counter_written_in_body_falls_back () =
  ignore
    (expect_fallback
       "void main() { i = 0; while (i < 8) { out[i] = x[i]; i = i + 2; } }")

let test_prologue_epilogue_effects () =
  let source =
    "void main() { base = 100; for (i = 0; i < 8; i++) { out[i] = base + x[i]; } done_flag = 1; }"
  in
  let staged = expect_looped source in
  (* straight prologue, loop, straight epilogue *)
  Alcotest.(check int) "three segments" 3 (List.length staged.Loop_flow.segments);
  Alcotest.(check int) "two straight segments" 2
    (List.length (Loop_flow.straights staged));
  let final = Loop_flow.run ~memory_init:inputs staged in
  Alcotest.(check (option (list int))) "epilogue ran" (Some [ 1 ])
    (Option.map Array.to_list (List.assoc_opt "done_flag" final));
  Alcotest.(check (option (list int))) "counter final value" (Some [ 8 ])
    (Option.map Array.to_list (List.assoc_opt "i" final));
  check_verified source

let test_costs_favour_config_size () =
  match
    Loop_flow.compare_costs
      "void main() { for (i = 0; i < 16; i++) { out[i] = 3 * x[i] + 1; } }"
  with
  | Some c ->
    Alcotest.(check bool) "config shrinks" true
      (c.Loop_flow.looped_config_words < c.Loop_flow.unrolled_config_words);
    Alcotest.(check bool) "cycles cost is honest (no overlap)" true
      (c.Loop_flow.looped_cycles >= c.Loop_flow.unrolled_cycles)
  | None -> Alcotest.fail "expected looped costs"

let test_parametric_instantiate_base () =
  let staged =
    expect_looped
      "void main() { for (i = 0; i < 16; i++) { out[i] = 3 * x[i] + 1; } }"
  in
  (* instantiating any k yields a structurally valid job the simulator
     accepts *)
  match Loop_flow.loops staged with
  | [ l ] ->
    for k = 0 to 15 do
      let job = Parametric.instantiate l.Loop_flow.body k in
      let _, trace = Fpfa_sim.Sim.run job in
      Alcotest.(check bool) "runs" true (trace.Fpfa_sim.Sim.cycles_run > 0)
    done
  | _ -> Alcotest.fail "expected one loop segment"

let test_trip_count_variants () =
  (* non-zero start *)
  check_verified
    "void main() { for (i = 2; i < 14; i++) { out[i] = x[i] + 1; } }";
  ignore
    (expect_looped
       "void main() { for (i = 2; i < 14; i++) { out[i] = x[i] + 1; } }")

let test_multiple_loops_staged () =
  let source =
    "void main() { s = 0; for (i = 0; i < 8; i++) { s = s + x[i]; } \
     for (i = 0; i < 8; i++) { out[i] = x[i] - s / 8; } }"
  in
  let staged = expect_looped source in
  Alcotest.(check int) "two loop segments" 2
    (List.length (Loop_flow.loops staged));
  check_verified source;
  (* and the staged run really removes the mean *)
  let memory_init = [ ("x", [| 8; 16; 24; 32; 8; 16; 24; 32 |]) ] in
  let final = Loop_flow.run ~memory_init staged in
  Alcotest.(check (option (list int))) "mean removed"
    (Some [ -12; -4; 4; 12; -12; -4; 4; 12 ])
    (Option.map Array.to_list (List.assoc_opt "out" final))

let test_mixed_qualifying_loops () =
  (* the second loop is non-linear and must unroll inside a straight
     segment while the first still parametrises *)
  let source =
    "void main() { for (i = 0; i < 8; i++) { out[i] = x[i] * 2; } \
     for (i = 0; i < 6; i++) { sq[i] = i * i; } }"
  in
  let staged = expect_looped source in
  Alcotest.(check int) "one loop parametrised" 1
    (List.length (Loop_flow.loops staged));
  check_verified source

(* A generated counted loop: [li = 0; while (li < bound) { body; li =
   li + 1; }] with a body of one to three statements. *)
let counted_loop_gen =
  QCheck.Gen.(
    pair (int_range 4 8)
      (list_size (int_range 1 3) (Gen.stmt_gen ~depth:1 ~loop_var:(Some "li"))))

let counted_loop_source (bound, body) =
  let open Cfront.Ast in
  let li = Var "li" in
  program_to_string
    [
      {
        name = "main";
        params = [];
        body =
          [
            Assign (Lvar "li", Int_lit 0);
            While
              ( Binop (Lt, li, Int_lit bound),
                body @ [ Assign (Lvar "li", Binop (Add, li, Int_lit 1)) ] );
          ];
        returns_value = false;
      };
    ]

(* Property: whatever the outcome (looped or fallback), the mapping always
   verifies against the reference interpreter on generated counted loops. *)
let loop_flow_always_verifies =
  QCheck.Test.make ~name:"loop flow verifies on random loops" ~count:60
    (QCheck.make ~print:counted_loop_source counted_loop_gen)
    (fun loop ->
      let source = counted_loop_source loop in
      let outcome = Loop_flow.map_source source in
      Loop_flow.verify ~memory_init:Gen.memory_init source outcome)

(* Inputs of the generated programs' shapes (every region of
   [Gen.memory_init], at its length) holding random values of the
   bit-level stage's default input width, 16 signed bits. *)
let random_inputs =
  QCheck.Gen.(
    flatten_l
      (List.map
         (fun (region, cells) ->
           map
             (fun values -> (region, values))
             (array_repeat (Array.length cells) (int_range (-32768) 32767)))
         Gen.memory_init))

(* Property: a [Looped] outcome, which [Loop_flow.validate] checked on
   zero inputs only, verifies on random inputs too, and the simulator
   never faults on them. Fallbacks are discarded. *)
let looped_verifies_on_random_inputs =
  QCheck.Test.make ~name:"looped outcomes verify on random inputs" ~count:200
    ~max_gen:1000
    (QCheck.make
       ~print:(fun (loop, _) -> counted_loop_source loop)
       QCheck.Gen.(pair counted_loop_gen (list_repeat 5 random_inputs)))
    (fun (loop, inputs) ->
      let source = counted_loop_source loop in
      match Loop_flow.map_source source with
      | Loop_flow.Unrolled _ -> QCheck.assume_fail ()
      | Loop_flow.Looped _ as outcome ->
        List.for_all
          (fun memory_init ->
            match Loop_flow.verify ~memory_init source outcome with
            | ok -> ok
            | exception Fpfa_sim.Sim.Fault msg ->
              QCheck.Test.fail_reportf "Sim.Fault: %s" msg)
          inputs)

let suite =
  [
    Alcotest.test_case "elementwise" `Quick test_elementwise_loops_map;
    Alcotest.test_case "reduction" `Quick test_reduction_loops_map;
    Alcotest.test_case "linear counter" `Quick test_linear_counter_use_maps;
    Alcotest.test_case "strided access" `Quick test_strided_access_maps;
    Alcotest.test_case "nonlinear fallback" `Quick test_nonlinear_counter_falls_back;
    Alcotest.test_case "off-tile parametric job" `Quick
      test_off_tile_parametric_job_falls_back;
    Alcotest.test_case "no loop" `Quick test_no_loop_falls_back;
    Alcotest.test_case "small trip" `Quick test_small_trip_falls_back;
    Alcotest.test_case "counter written" `Quick test_counter_written_in_body_falls_back;
    Alcotest.test_case "prologue/epilogue" `Quick test_prologue_epilogue_effects;
    Alcotest.test_case "costs" `Quick test_costs_favour_config_size;
    Alcotest.test_case "instantiate" `Quick test_parametric_instantiate_base;
    Alcotest.test_case "trip variants" `Quick test_trip_count_variants;
    Alcotest.test_case "multiple loops" `Quick test_multiple_loops_staged;
    Alcotest.test_case "mixed loops" `Quick test_mixed_qualifying_loops;
    QCheck_alcotest.to_alcotest loop_flow_always_verifies;
    QCheck_alcotest.to_alcotest looped_verifies_on_random_inputs;
  ]
