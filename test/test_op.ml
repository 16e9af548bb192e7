(* Unit + property tests for the primitive operation semantics. *)

module Op = Cdfg.Op

let test_total_semantics () =
  Alcotest.(check int) "div 0" 0 (Op.eval_binop Op.Div 7 0);
  Alcotest.(check int) "mod 0" 0 (Op.eval_binop Op.Mod 7 0);
  Alcotest.(check int) "shl 100" 0 (Op.eval_binop Op.Shl 1 100);
  Alcotest.(check int) "shr -1" 0 (Op.eval_binop Op.Shr 1 (-1));
  Alcotest.(check int) "shl ok" 8 (Op.eval_binop Op.Shl 1 3);
  Alcotest.(check int) "shr sign extends" (-1) (Op.eval_binop Op.Shr (-2) 1)

let test_comparisons () =
  Alcotest.(check int) "lt" 1 (Op.eval_binop Op.Lt (-2) 3);
  Alcotest.(check int) "ge" 0 (Op.eval_binop Op.Ge (-2) 3);
  Alcotest.(check int) "eq" 1 (Op.eval_binop Op.Eq 4 4);
  Alcotest.(check int) "land strict" 1 (Op.eval_binop Op.Land (-7) 2);
  Alcotest.(check int) "lor" 0 (Op.eval_binop Op.Lor 0 0)

let test_unops () =
  Alcotest.(check int) "neg" (-5) (Op.eval_unop Op.Neg 5);
  Alcotest.(check int) "bnot" (-6) (Op.eval_unop Op.Bnot 5);
  Alcotest.(check int) "lnot 0" 1 (Op.eval_unop Op.Lnot 0);
  Alcotest.(check int) "lnot 5" 0 (Op.eval_unop Op.Lnot 5)

let test_multiplier_class () =
  Alcotest.(check bool) "mul" true (Op.is_multiplier_class Op.Mul);
  Alcotest.(check bool) "div" true (Op.is_multiplier_class Op.Div);
  Alcotest.(check bool) "add" false (Op.is_multiplier_class Op.Add);
  Alcotest.(check bool) "shl" false (Op.is_multiplier_class Op.Shl)

let test_ast_conversion_total () =
  (* every AST operator converts, and agrees with the unroller's constant
     evaluator on concrete operands *)
  let ast_ops =
    [
      Cfront.Ast.Add; Cfront.Ast.Sub; Cfront.Ast.Mul; Cfront.Ast.Div;
      Cfront.Ast.Mod; Cfront.Ast.Shl; Cfront.Ast.Shr; Cfront.Ast.Band;
      Cfront.Ast.Bor; Cfront.Ast.Bxor; Cfront.Ast.Lt; Cfront.Ast.Le;
      Cfront.Ast.Gt; Cfront.Ast.Ge; Cfront.Ast.Eq; Cfront.Ast.Ne;
      Cfront.Ast.Land; Cfront.Ast.Lor;
    ]
  in
  Alcotest.(check int) "all ops covered" (List.length Op.all_binops)
    (List.length ast_ops);
  List.iter
    (fun ast_op ->
      let op = Op.binop_of_ast ast_op in
      List.iter
        (fun (a, b) ->
          let via_ast =
            Cfront.Unroll.eval_const_expr
              (fun _ -> None)
              (Cfront.Ast.Binop (ast_op, Cfront.Ast.Int_lit a, Cfront.Ast.Int_lit b))
          in
          Alcotest.(check (option int))
            (Op.binop_to_string op)
            via_ast
            (Some (Op.eval_binop op a b)))
        [ (3, 4); (-7, 2); (5, 0); (0, -3); (1, 70) ])
    ast_ops

let commutativity_correct =
  QCheck.Test.make ~name:"commutative ops commute" ~count:200
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      List.for_all
        (fun op ->
          (not (Op.commutative op)) || Op.eval_binop op a b = Op.eval_binop op b a)
        Op.all_binops)

(* The encodings write an operator as its position in the [all_*]
   lists, which is what their decoders read back. *)
let test_codes_are_positions () =
  List.iteri
    (fun i op -> Alcotest.(check int) "binop code" i (Op.binop_code op))
    Op.all_binops;
  List.iteri
    (fun i op -> Alcotest.(check int) "unop code" i (Op.unop_code op))
    Op.all_unops

let suite =
  [
    Alcotest.test_case "total semantics" `Quick test_total_semantics;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "unops" `Quick test_unops;
    Alcotest.test_case "multiplier class" `Quick test_multiplier_class;
    Alcotest.test_case "ast conversion" `Quick test_ast_conversion_total;
    Alcotest.test_case "codes are positions" `Quick test_codes_are_positions;
    QCheck_alcotest.to_alcotest commutativity_correct;
  ]
