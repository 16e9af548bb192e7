(* Unit + property tests for the CDFG evaluator. *)

module G = Cdfg.Graph
module Op = Cdfg.Op
module Eval = Cdfg.Eval

let region result name =
  match List.assoc_opt name result.Eval.memory with
  | Some arr -> Array.to_list arr
  | None -> Alcotest.fail ("no region " ^ name)

let test_token_snapshot_semantics () =
  (* A fetch sharing the pre-store token must see the old value even though
     node ids would evaluate it "after" the store. *)
  let g = G.create "t" in
  G.declare_region g "r" { G.size = Some 1; implicit = true };
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let v = G.add g (G.Const 42) [] in
  let st = G.add g (G.St "r") [ ss; zero; v ] in
  let fe_old = G.add g (G.Fe "r") [ ss; zero ] in
  ignore (G.add g (G.Ss_out "r") [ st ]);
  G.declare_region g "probe" { G.size = Some 1; implicit = false };
  let ss2 = G.add g (G.Ss_in "probe") [] in
  let st2 = G.add g (G.St "probe") [ ss2; zero; fe_old ] in
  ignore (G.add g (G.Ss_out "probe") [ st2 ]);
  let result = Eval.run ~memory_init:[ ("r", [| 7 |]) ] g in
  Alcotest.(check (list int)) "snapshot read" [ 7 ] (region result "probe");
  Alcotest.(check (list int)) "store landed" [ 42 ] (region result "r")

let test_delete_semantics () =
  let g = G.create "t" in
  G.declare_region g "r" { G.size = Some 2; implicit = true };
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let del = G.add g (G.Del "r") [ ss; zero ] in
  ignore (G.add g (G.Ss_out "r") [ del ]);
  let result = Eval.run ~memory_init:[ ("r", [| 5; 6 |]) ] g in
  Alcotest.(check (list int)) "deleted reads as 0, rest kept" [ 0; 6 ]
    (region result "r")

let test_fetch_of_deleted_faults () =
  let g = G.create "t" in
  G.declare_region g "r" { G.size = Some 1; implicit = true } ;
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let del = G.add g (G.Del "r") [ ss; zero ] in
  let fe = G.add g (G.Fe "r") [ del; zero ] in
  G.declare_region g "o" { G.size = Some 1; implicit = false };
  let ss2 = G.add g (G.Ss_in "o") [] in
  let st = G.add g (G.St "o") [ ss2; zero; fe ] in
  ignore (G.add g (G.Ss_out "o") [ st ]);
  ignore (G.add g (G.Ss_out "r") [ del ]);
  match Eval.run g with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "fetch of deleted tuple accepted"

let test_store_then_delete_then_store () =
  let g = G.create "t" in
  G.declare_region g "r" { G.size = Some 1; implicit = false };
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let st1 = G.add g (G.St "r") [ ss; zero; G.add g (G.Const 1) [] ] in
  let del = G.add g (G.Del "r") [ st1; zero ] in
  let st2 = G.add g (G.St "r") [ del; zero; G.add g (G.Const 2) [] ] in
  ignore (G.add g (G.Ss_out "r") [ st2 ]);
  let result = Eval.run g in
  Alcotest.(check (list int)) "resurrected" [ 2 ] (region result "r")

let test_bounds () =
  let g = G.create "t" in
  G.declare_region g "r" { G.size = Some 2; implicit = false };
  let ss = G.add g (G.Ss_in "r") [] in
  let five = G.add g (G.Const 5) [] in
  let v = G.add g (G.Const 1) [] in
  let st = G.add g (G.St "r") [ ss; five; v ] in
  ignore (G.add g (G.Ss_out "r") [ st ]);
  match Eval.run g with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds store accepted"

let test_implicit_region_growth () =
  let result =
    Eval.run
      (Cdfg.Builder.build_program "void main() { a[6] = 3; }")
  in
  Alcotest.(check int) "materialised up to highest store" 7
    (List.length (region result "a"))

let test_value_of () =
  let g = G.create "t" in
  let a = G.add g (G.Const 6) [] in
  let b = G.add g (G.Const 7) [] in
  let m = G.add g (G.Binop Op.Mul) [ a; b ] in
  Alcotest.(check int) "42" 42 (Eval.value_of g m)

let test_equal_result_padding () =
  let r1 = { Eval.memory = [ ("a", [| 1; 0 |]) ]; named = [] } in
  let r2 = { Eval.memory = [ ("a", [| 1 |]) ]; named = [] } in
  Alcotest.(check bool) "zero padded equal" true (Eval.equal_result r1 r2);
  let r3 = { Eval.memory = [ ("a", [| 1; 2 |]) ]; named = [] } in
  Alcotest.(check bool) "differs" false (Eval.equal_result r1 r3)

let suite =
  [
    Alcotest.test_case "token snapshot" `Quick test_token_snapshot_semantics;
    Alcotest.test_case "delete" `Quick test_delete_semantics;
    Alcotest.test_case "fetch deleted" `Quick test_fetch_of_deleted_faults;
    Alcotest.test_case "store/delete/store" `Quick test_store_then_delete_then_store;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "implicit growth" `Quick test_implicit_region_growth;
    Alcotest.test_case "value_of" `Quick test_value_of;
    Alcotest.test_case "equal_result" `Quick test_equal_result_padding;
  ]
