(* Unit tests for the AST -> CDFG builder. *)

module G = Cdfg.Graph
module Builder = Cdfg.Builder
module Eval = Cdfg.Eval

let build source = Builder.build_program source

let eval ?memory_init source = Eval.run ?memory_init (build source)

let region result name =
  match List.assoc_opt name result.Eval.memory with
  | Some arr -> Array.to_list arr
  | None -> Alcotest.fail ("no region " ^ name)

let test_regions_declared () =
  let g = build "void main() { s = a[0] + 1; int b[3]; b[0] = s; }" in
  let info name = Option.get (G.region_info g name) in
  Alcotest.(check bool) "scalar size 1" true ((info "s").G.size = Some 1);
  Alcotest.(check bool) "implicit array unsized" true ((info "a").G.size = None);
  Alcotest.(check bool) "declared array sized" true ((info "b").G.size = Some 3);
  Alcotest.(check bool) "a implicit" true (info "a").G.implicit;
  Alcotest.(check bool) "b declared" false (info "b").G.implicit

let test_every_region_has_endpoints () =
  let g = build "void main() { x = a[1] * 2; }" in
  List.iter
    (fun (r, _) ->
      Alcotest.(check bool) ("ss_in " ^ r) true (G.ss_in_of g r <> None);
      Alcotest.(check bool) ("ss_out " ^ r) true (G.ss_out_of g r <> None))
    (G.regions g)

let test_reads_become_fetches () =
  let g = build "void main() { x = a[0] + a[0]; }" in
  let s = G.stats g in
  (* naive translation: one FE per read, no CSE yet *)
  Alcotest.(check int) "two fetches" 2 s.G.fetches;
  Alcotest.(check int) "one store" 1 s.G.stores

let test_store_ordering_after_read () =
  (* x = x + 1 must fetch the old x before storing the new one; the
     anti-dependence shows up as an order edge on the store. *)
  let g = build "void main() { x = x + 1; }" in
  let store =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with G.St "x" -> Some n.G.id | _ -> acc)
  in
  match store with
  | Some st ->
    Alcotest.(check bool) "store ordered after the fetch" true
      (G.order_after g st <> [])
  | None -> Alcotest.fail "no store"

let test_if_conversion_produces_mux () =
  let g = build "void main() { if (c) { x = 1; } else { x = 2; } }" in
  let s = G.stats g in
  Alcotest.(check bool) "muxes present" true (s.G.muxes >= 2);
  (* Both branches execute speculatively: two stores to x. *)
  Alcotest.(check int) "stores" 2 s.G.stores

let test_if_conversion_semantics () =
  let source = "void main() { if (c > 0) { x = 1; } else { x = 2; } }" in
  let taken = eval ~memory_init:[ ("c", [| 5 |]) ] source in
  Alcotest.(check (list int)) "then" [ 1 ] (region taken "x");
  let not_taken = eval ~memory_init:[ ("c", [| -5 |]) ] source in
  Alcotest.(check (list int)) "else" [ 2 ] (region not_taken "x")

let test_nested_if_predicates () =
  let source =
    "void main() { x = 0; if (a > 0) { if (b > 0) { x = 3; } } }"
  in
  let both = eval ~memory_init:[ ("a", [| 1 |]); ("b", [| 1 |]) ] source in
  Alcotest.(check (list int)) "both true" [ 3 ] (region both "x");
  let outer_only = eval ~memory_init:[ ("a", [| 1 |]); ("b", [| 0 |]) ] source in
  Alcotest.(check (list int)) "inner false" [ 0 ] (region outer_only "x")

let test_predicated_array_store () =
  let source = "void main() { if (c) { a[1] = 9; } }" in
  let on = eval ~memory_init:[ ("c", [| 1 |]); ("a", [| 4; 5 |]) ] source in
  Alcotest.(check (list int)) "written" [ 4; 9 ] (region on "a");
  let off = eval ~memory_init:[ ("c", [| 0 |]); ("a", [| 4; 5 |]) ] source in
  Alcotest.(check (list int)) "kept" [ 4; 5 ] (region off "a")

let test_residual_loop_rejected () =
  match Builder.build_func (List.hd (Cfront.Parser.parse_program
      "void main() { while (u) { x = 1; } }"))
  with
  | exception Builder.Unsupported _ -> ()
  | _ -> Alcotest.fail "residual loop accepted"

let test_predicated_return_rejected () =
  match Builder.build_func (List.hd (Cfront.Parser.parse_program
      "int main() { if (c) { return 1; } return 0; }"))
  with
  | exception Builder.Unsupported _ -> ()
  | _ -> Alcotest.fail "conditional return accepted"

let test_return_output () =
  let g = build "int main() { x = 5; return x * 2; }" in
  Alcotest.(check bool) "return output registered" true
    (List.mem_assoc "return" (G.outputs g));
  let result = Eval.run g in
  Alcotest.(check (option int)) "value" (Some 10)
    (List.assoc_opt "return" result.Eval.named)

let test_delete_locals () =
  let f = List.hd (Cfront.Parser.parse_program
      "void main() { int tmp; tmp = a[0]; b[0] = tmp; }")
  in
  let g = Builder.build_func ~delete_locals:true f in
  let s = G.stats g in
  Alcotest.(check int) "DEL for the declared scalar" 1 s.G.deletes;
  (* the deleted local reads back as zero in the materialised memory *)
  let result = Eval.run ~memory_init:[ ("a", [| 7 |]) ] g in
  Alcotest.(check (list int)) "b carries the value" [ 7 ] (region result "b");
  Alcotest.(check (list int)) "tmp deleted" [ 0 ] (region result "tmp")

let test_intrinsics_expand () =
  let result = eval ~memory_init:[ ("v", [| -9 |]) ]
      "void main() { x = abs(v); y = min(v, 3); z = max(v, 3); }"
  in
  Alcotest.(check (list int)) "abs" [ 9 ] (region result "x");
  Alcotest.(check (list int)) "min" [ -9 ] (region result "y");
  Alcotest.(check (list int)) "max" [ 3 ] (region result "z")

let test_builder_validates () =
  (* every built graph passes validation *)
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let program =
        Cfront.Unroll.unroll_program
          (Cfront.Parser.parse_program k.Fpfa_kernels.Kernels.source)
      in
      let g = Builder.build_func (List.hd program) in
      G.validate g)
    Fpfa_kernels.Kernels.all

(* The builder's two folds ({!Cdfg.Fold}). *)

let test_stored_value_forwarded () =
  (* the fetch of x reads the 5 just stored, and 5 + 1 folds *)
  let g = build "void main() { x = 5; y = x + 1; }" in
  Alcotest.(check int) "no fetch" 0 (G.stats g).G.fetches;
  let stored =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with
        | G.St "y" -> Some (G.kind g n.G.inputs.(2))
        | _ -> acc)
  in
  Alcotest.(check bool) "y stores the constant 6" true
    (stored = Some (G.Const 6))

let test_aliasing_store_keeps_fetch () =
  (* a[u] may be a[1]: the fetch of a[1] must not read the 4 stored
     before it *)
  let source = "void main() { a[1] = 4; a[u] = 5; x = a[1]; }" in
  let g = build source in
  Alcotest.(check bool) "fetch kept" true
    (G.fold g ~init:false ~f:(fun found n ->
         found || match n.G.kind with G.Fe "a" -> true | _ -> false));
  let result = Eval.run ~memory_init:[ ("u", [| 1 |]) ] g in
  Alcotest.(check (list int)) "x reads the aliasing store" [ 5 ]
    (region result "x")

let test_constant_select_picks () =
  let g = build "void main() { if (1) { x = a[0]; } else { x = a[1]; } }" in
  let s = G.stats g in
  Alcotest.(check int) "no mux" 0 s.G.muxes;
  Alcotest.(check int) "no logic" 0 s.G.other_alu;
  let result = Eval.run ~memory_init:[ ("a", [| 4; 9 |]) ] g in
  Alcotest.(check (list int)) "then branch" [ 4 ] (region result "x")

let fresh_build program =
  Builder.build_func (List.hd (Cfront.Unroll.unroll_program program))

(* Evaluating a freshly built graph matches the reference interpreter,
   which shares no code with the builder's folds. *)
let matches_interp name arb =
  QCheck.Test.make ~name ~count:300 arb (fun program ->
      let st =
        Cfront.Interp.run_main ~array_init:Gen.array_inputs
          ~scalar_init:Gen.scalar_inputs program
      in
      let result = Eval.run ~memory_init:Gen.memory_init (fresh_build program) in
      Eval.conforms_to_interp ~memory_init:Gen.memory_init st result)

(* Nothing in a fresh build is left for the folds the builder performs:
   no operation on constants, no mux on a constant select and no fetch
   whose token chain reaches a store of its offset. *)
let nothing_to_fold name arb =
  QCheck.Test.make ~name ~count:300 arb (fun program ->
      let g = fresh_build program in
      let input = G.input g in
      G.fold g ~init:true ~f:(fun ok n ->
          let id = n.G.id in
          ok
          &&
          match n.G.kind with
          | G.Binop op -> Cdfg.Fold.binop g op (input id 0) (input id 1) = None
          | G.Unop op -> Cdfg.Fold.unop g op (input id 0) = None
          | G.Mux ->
            Cdfg.Fold.mux g ~cond:(input id 0) (input id 1) (input id 2) = None
          | G.Fe _ ->
            let offset = input id 1 in
            Cdfg.Fold.stored_value g ~offset
              (Cdfg.Fold.anchor g ~offset (input id 0))
            < 0
          | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ -> true))

let suite =
  [
    Alcotest.test_case "regions" `Quick test_regions_declared;
    Alcotest.test_case "ss endpoints" `Quick test_every_region_has_endpoints;
    Alcotest.test_case "fetch per read" `Quick test_reads_become_fetches;
    Alcotest.test_case "anti-dependence" `Quick test_store_ordering_after_read;
    Alcotest.test_case "if-conversion muxes" `Quick test_if_conversion_produces_mux;
    Alcotest.test_case "if semantics" `Quick test_if_conversion_semantics;
    Alcotest.test_case "nested predicates" `Quick test_nested_if_predicates;
    Alcotest.test_case "predicated store" `Quick test_predicated_array_store;
    Alcotest.test_case "residual loop" `Quick test_residual_loop_rejected;
    Alcotest.test_case "predicated return" `Quick test_predicated_return_rejected;
    Alcotest.test_case "return output" `Quick test_return_output;
    Alcotest.test_case "delete locals" `Quick test_delete_locals;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics_expand;
    Alcotest.test_case "kernels validate" `Quick test_builder_validates;
    Alcotest.test_case "stored value forwarded" `Quick test_stored_value_forwarded;
    Alcotest.test_case "aliasing store keeps fetch" `Quick
      test_aliasing_store_keeps_fetch;
    Alcotest.test_case "constant select picks" `Quick test_constant_select_picks;
    QCheck_alcotest.to_alcotest
      (matches_interp "CDFG evaluation = interpreter" Gen.program);
    QCheck_alcotest.to_alcotest
      (matches_interp "dynamic indices: eval = interpreter" Gen.dyn_program);
    QCheck_alcotest.to_alcotest
      (nothing_to_fold "fresh build leaves nothing to fold" Gen.program);
    QCheck_alcotest.to_alcotest
      (nothing_to_fold "dynamic indices: nothing to fold" Gen.dyn_program);
  ]
