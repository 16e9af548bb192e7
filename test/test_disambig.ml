(* Tests for the statespace address analysis (Fpfa_analysis.Addr), its
   disjointness decisions, and the cdfg.statespace-order verifier rule
   that replays them over a graph's order edges. *)

module G = Cdfg.Graph
module D = Fpfa_diag.Diag
module T = Transform
module Addr = Fpfa_analysis.Addr
module Verify = Fpfa_analysis.Verify

let relation : T.Disambig.relation Alcotest.testable =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | T.Disambig.Disjoint -> "Disjoint"
        | T.Disambig.Must_alias -> "Must_alias"
        | T.Disambig.May_alias -> "May_alias"))
    ( = )

let rules diags = List.sort_uniq compare (List.map (fun d -> d.D.rule) diags)

(* {2 The abstract domain and the disjointness decision procedure} *)

(* Offsets engineered to hit every branch of the decision: the shared
   opaque symbol is x = a[0] & 3 with interval [0, 3]. *)
let domain_graph () =
  let g = G.create "addr" in
  G.declare_region g "a" { G.size = Some 32; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let zero = G.add g (G.Const 0) [] in
  let mask = G.add g (G.Const 3) [] in
  let base = G.add g (G.Fe "a") [ tok; zero ] in
  let x = G.add g (G.Binop Cdfg.Op.Band) [ base; mask ] in
  let one = G.add g (G.Const 1) [] in
  let two = G.add g (G.Const 2) [] in
  let five = G.add g (G.Const 5) [] in
  let x2 = G.add g (G.Binop Cdfg.Op.Mul) [ x; two ] in
  let x2p1 = G.add g (G.Binop Cdfg.Op.Add) [ x2; one ] in
  let xp5 = G.add g (G.Binop Cdfg.Op.Add) [ x; five ] in
  let fe off = G.add g (G.Fe "a") [ tok; off ] in
  (g, x, fe x, fe x2, fe x2p1, fe xp5, fe five, fe five)

let test_affine_forms () =
  let g, x, _f_x, f_x2, f_x2p1, _, _, _ = domain_graph () in
  let facts = Addr.analyze g in
  (match Addr.access facts f_x2 with
  | Some a -> (
    Alcotest.(check (pair int int))
      "2x interval" (0, 6)
      (a.Addr.offset.Addr.itv.Fpfa_util.Interval.lo,
       a.Addr.offset.Addr.itv.Fpfa_util.Interval.hi);
    match a.Addr.offset.Addr.affine with
    | Some { Addr.base; stride; sym } ->
      Alcotest.(check (triple int int int))
        "2x affine form" (0, 2, x) (base, stride, sym)
    | None -> Alcotest.fail "2x lost its affine form")
  | None -> Alcotest.fail "fetch has no access fact");
  match Addr.access facts f_x2p1 with
  | Some a -> (
    match a.Addr.offset.Addr.affine with
    | Some { Addr.base; stride; sym } ->
      Alcotest.(check (triple int int int))
        "2x+1 affine form" (1, 2, x) (base, stride, sym)
    | None -> Alcotest.fail "2x+1 lost its affine form")
  | None -> Alcotest.fail "fetch has no access fact"

let test_relation_decisions () =
  let g, _x, f_x, f_x2, f_x2p1, f_xp5, f_c5, f_c5' = domain_graph () in
  let facts = Addr.analyze g in
  let rel = Addr.relation facts in
  (* parity: 2x vs 2x+1 differ by an odd constant at even stride *)
  Alcotest.check relation "2x vs 2x+1" T.Disambig.Disjoint (rel f_x2 f_x2p1);
  Alcotest.check relation "symmetric" T.Disambig.Disjoint (rel f_x2p1 f_x2);
  (* intervals [0,6] and [5,8] overlap, but 2x = x+5 needs x = 5 > 3 *)
  Alcotest.check relation "solution outside the symbol interval"
    T.Disambig.Disjoint (rel f_x2 f_xp5);
  (* divisibility: 2x = 5 has no integer solution *)
  Alcotest.check relation "2x vs const 5" T.Disambig.Disjoint (rel f_x2 f_c5);
  (* 2x = x at x = 0, inside [0,3] *)
  Alcotest.check relation "x vs 2x can collide" T.Disambig.May_alias
    (rel f_x f_x2);
  (* identical constants *)
  Alcotest.check relation "same constant offset" T.Disambig.Must_alias
    (rel f_c5 f_c5');
  Alcotest.check relation "must-disjoint helper" T.Disambig.Disjoint
    (rel f_x2 f_c5);
  Alcotest.(check bool) "must_disjoint" true (Addr.must_disjoint facts f_x2 f_c5)

(* Downward-loop address shapes ([state[k]] / [state[k - 1]] with a
   descending symbolic iv): constant-minus-symbol and negated-symbol
   expressions must keep exact negative-stride affine forms, and the
   decision procedure must handle the negative Δstride divisibility and
   interval checks exactly as it does ascending ones. *)
let test_negative_stride_forms () =
  let g = G.create "neg" in
  G.declare_region g "a" { G.size = Some 32; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let zero = G.add g (G.Const 0) [] in
  let mask = G.add g (G.Const 3) [] in
  let base = G.add g (G.Fe "a") [ tok; zero ] in
  let x = G.add g (G.Binop Cdfg.Op.Band) [ base; mask ] in
  let c6 = G.add g (G.Const 6) [] in
  let c7 = G.add g (G.Const 7) [] in
  let m7x = G.add g (G.Binop Cdfg.Op.Sub) [ c7; x ] in
  let m6x = G.add g (G.Binop Cdfg.Op.Sub) [ c6; x ] in
  let negx = G.add g (G.Unop Cdfg.Op.Neg) [ x ] in
  let negx7 = G.add g (G.Binop Cdfg.Op.Add) [ negx; c7 ] in
  let fe off = G.add g (G.Fe "a") [ tok; off ] in
  let f_7mx = fe m7x in
  let f_6mx = fe m6x in
  let f_x = fe x in
  let f_neg7 = fe negx7 in
  let facts = Addr.analyze g in
  (match Addr.access facts f_7mx with
  | Some a -> (
    Alcotest.(check (pair int int))
      "7-x interval" (4, 7)
      (a.Addr.offset.Addr.itv.Fpfa_util.Interval.lo,
       a.Addr.offset.Addr.itv.Fpfa_util.Interval.hi);
    match a.Addr.offset.Addr.affine with
    | Some { Addr.base; stride; sym } ->
      Alcotest.(check (triple int int int))
        "7-x affine form has stride -1" (7, -1, x) (base, stride, sym)
    | None -> Alcotest.fail "7-x lost its affine form")
  | None -> Alcotest.fail "fetch has no access fact");
  let rel = Addr.relation facts in
  (* state[k] vs state[k-1]: Δstride = 0, Δbase = 1 — never the same cell
     within one iteration, whatever k *)
  Alcotest.check relation "7-x vs 6-x" T.Disambig.Disjoint (rel f_7mx f_6mx);
  (* 7-x = x needs x = 3.5: no integer solution at Δstride -2 *)
  Alcotest.check relation "7-x vs x" T.Disambig.Disjoint (rel f_7mx f_x);
  (* 6-x = x at x = 3, inside [0,3] *)
  Alcotest.check relation "6-x vs x can collide" T.Disambig.May_alias
    (rel f_6mx f_x);
  (* the Neg-derived form (-x) + 7 is the same address as 7 - x *)
  Alcotest.check relation "(-x)+7 vs 7-x" T.Disambig.Must_alias
    (rel f_neg7 f_7mx)

let test_relation_across_regions () =
  let g = G.create "r" in
  G.declare_region g "a" { G.size = Some 4; implicit = true };
  G.declare_region g "b" { G.size = Some 4; implicit = true };
  let ta = G.add g (G.Ss_in "a") [] in
  let tb = G.add g (G.Ss_in "b") [] in
  let zero = G.add g (G.Const 0) [] in
  let fa = G.add g (G.Fe "a") [ ta; zero ] in
  let fb = G.add g (G.Fe "b") [ tb; zero ] in
  let facts = Addr.analyze g in
  Alcotest.check relation "same offset, different regions"
    T.Disambig.Disjoint
    (Addr.relation facts fa fb)

(* {2 The no-wrap certificate}

   Known bits can keep the Absdom interval of a wrapped value finite, so
   Addr must not read it as a no-wrap proof. With
   x = (a[0] & 255) | (max_int - 255), x + x wraps to 2x - 2^63, inside
   [-512, -2]; with y = (a[0] & (2^29 - 1)) | 2^40, y << 30 shifts bit 40
   off the word. Over ℤ the forms 2x and 2^30 * y would be wrong: the
   second would put cell 2^30 at y = 1, outside y's interval, and so call
   it Disjoint from y << 30, which reaches that cell at a[0] = 1. *)
let test_wrap_certificate () =
  let g = G.create "wrap" in
  G.declare_region g "a" { G.size = None; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let const v = G.add g (G.Const v) [] in
  let base = G.add g (G.Fe "a") [ tok; const 0 ] in
  let masked m = G.add g (G.Binop Cdfg.Op.Band) [ base; const m ] in
  let x =
    G.add g (G.Binop Cdfg.Op.Bor) [ masked 255; const (max_int - 255) ]
  in
  let xx = G.add g (G.Binop Cdfg.Op.Add) [ x; x ] in
  let y =
    G.add g (G.Binop Cdfg.Op.Bor)
      [ masked ((1 lsl 29) - 1); const (1 lsl 40) ]
  in
  let y30 = G.add g (G.Binop Cdfg.Op.Shl) [ y; const 30 ] in
  let at a0 id = Cdfg.Eval.value_of ~memory_init:[ ("a", [| a0 |]) ] g id in
  Alcotest.(check int) "x + x wraps" (-2) (at 255 xx);
  Alcotest.(check int) "y << 30 wraps" (1 lsl 30) (at 1 y30);
  let fe off = G.add g (G.Fe "a") [ tok; off ] in
  let f_xx = fe xx and f_y30 = fe y30 and f_cell = fe (const (1 lsl 30)) in
  let facts = Addr.analyze g in
  List.iter
    (fun (what, f, node) ->
      match Addr.access facts f with
      | Some a ->
        Alcotest.(check bool)
          (what ^ ": finite Absdom interval")
          true
          (Fpfa_util.Interval.is_bounded a.Addr.offset.Addr.itv);
        Alcotest.(check (option (triple int int int)))
          (what ^ " is its own symbol")
          (Some (0, 1, node))
          (Option.map
             (fun { Addr.base; stride; sym } -> (base, stride, sym))
             a.Addr.offset.Addr.affine)
      | None -> Alcotest.fail "fetch has no access fact")
    [ ("x + x", f_xx, xx); ("y << 30", f_y30, y30) ];
  Alcotest.check relation "y << 30 vs its cell 2^30" T.Disambig.May_alias
    (Addr.relation facts f_y30 f_cell)

(* {2 Corruption: the verifier catches a missing anti-dependence} *)

let aliasing_graph () =
  let g = G.create "c" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let zero = G.add g (G.Const 0) [] in
  let mask = G.add g (G.Const 7) [] in
  let c3 = G.add g (G.Const 3) [] in
  let v = G.add g (G.Const 9) [] in
  let base = G.add g (G.Fe "a") [ tok; zero ] in
  let x = G.add g (G.Binop Cdfg.Op.Band) [ base; mask ] in
  let fe_dyn = G.add g (G.Fe "a") [ tok; x ] in
  let st = G.add g (G.St "a") [ tok; c3; v ] in
  G.add_order g st ~after:fe_dyn;
  G.add_order g st ~after:base;
  (g, fe_dyn, st)

let test_corrupt_removed_aliasing_edge () =
  let g, fe_dyn, st = aliasing_graph () in
  Alcotest.(check (list string)) "legal before corruption" []
    (rules (Verify.statespace g));
  (* a[x] with x in [0,7] may be a[3]: this edge is load-bearing *)
  G.remove_order g st ~after:fe_dyn;
  let diags = Verify.statespace g in
  Alcotest.(check (list string)) "illegal removal detected"
    [ "cdfg.statespace-order" ] (rules diags);
  match diags with
  | [ d ] ->
    Alcotest.(check (option int)) "blames the orphaned fetch" (Some fe_dyn)
      d.D.node
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let suite =
  [
    Alcotest.test_case "affine forms" `Quick test_affine_forms;
    Alcotest.test_case "negative strides" `Quick test_negative_stride_forms;
    Alcotest.test_case "relation decisions" `Quick test_relation_decisions;
    Alcotest.test_case "regions never alias" `Quick
      test_relation_across_regions;
    Alcotest.test_case "wrap certificate" `Quick test_wrap_certificate;
    Alcotest.test_case "corrupt: removed aliasing edge" `Quick
      test_corrupt_removed_aliasing_edge;
  ]
