(* Tests for the statespace address analysis (Fpfa_analysis.Addr), the
   order-edge disambiguation pass (Transform.Disambig), and the
   cdfg.statespace-order verifier rule that audits it. *)

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

(* {2 Pruning} *)

let test_prune_removes_disjoint_edge () =
  let g = G.create "p" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let c2 = G.add g (G.Const 2) [] in
  let c5 = G.add g (G.Const 5) [] in
  let v = G.add g (G.Const 9) [] in
  let fe = G.add g (G.Fe "a") [ tok; c2 ] in
  let st = G.add g (G.St "a") [ tok; c5; v ] in
  G.add_order g st ~after:fe;
  let report = Addr.prune g in
  Alcotest.(check int) "edge removed" 1 report.T.Disambig.removed;
  Alcotest.(check int) "nothing retargeted" 0 report.T.Disambig.retargeted;
  Alcotest.(check int) "no order edges left" 0 (T.Disambig.order_edge_count g);
  Alcotest.(check (list string)) "statespace still legal" []
    (rules (Verify.statespace g))

let test_prune_keeps_aliasing_edges () =
  let g = G.create "p" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let zero = G.add g (G.Const 0) [] in
  let mask = G.add g (G.Const 7) [] in
  let c5 = G.add g (G.Const 5) [] in
  let v = G.add g (G.Const 9) [] in
  let base = G.add g (G.Fe "a") [ tok; zero ] in
  let x = G.add g (G.Binop Cdfg.Op.Band) [ base; mask ] in
  let fe_dyn = G.add g (G.Fe "a") [ tok; x ] in
  let fe_c5 = G.add g (G.Fe "a") [ tok; c5 ] in
  let st = G.add g (G.St "a") [ tok; c5; v ] in
  (* the builder's conservatism: the writer after every pending fetch *)
  G.add_order g st ~after:base;
  G.add_order g st ~after:fe_dyn;
  G.add_order g st ~after:fe_c5;
  let report = Addr.prune g in
  Alcotest.(check int) "a[0] vs a[5] edge removed" 1 report.T.Disambig.removed;
  Alcotest.(check int) "a[5] vs a[5] kept" 1 report.T.Disambig.kept_alias;
  Alcotest.(check int) "a[x] vs a[5] kept" 1 report.T.Disambig.kept_unknown;
  Alcotest.(check (list int)) "surviving edges" [ fe_dyn; fe_c5 ]
    (List.sort compare (G.node g st).G.order_after);
  Alcotest.(check (list string)) "statespace still legal" []
    (rules (Verify.statespace g))

let test_prune_retargets_transitive_constraint () =
  let g = G.create "p" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let c2 = G.add g (G.Const 2) [] in
  let c5 = G.add g (G.Const 5) [] in
  let v = G.add g (G.Const 9) [] in
  let f = G.add g (G.Fe "a") [ tok; c5 ] in
  (* st1 writes a disjoint cell but carries f's only anti-dependence;
     st2, farther down the chain, writes f's own cell with no direct
     edge — its ordering is implied through st1. *)
  let st1 = G.add g (G.St "a") [ tok; c2; v ] in
  G.add_order g st1 ~after:f;
  let st2 = G.add g (G.St "a") [ st1; c5; v ] in
  let report = Addr.prune g in
  Alcotest.(check int) "disjoint edge removed" 1 report.T.Disambig.removed;
  Alcotest.(check int) "constraint re-materialised" 1
    report.T.Disambig.retargeted;
  Alcotest.(check (list int)) "st1 edge gone" []
    ((G.node g st1).G.order_after);
  Alcotest.(check (list int)) "st2 now ordered after the fetch" [ f ]
    ((G.node g st2).G.order_after);
  Alcotest.(check (list string)) "statespace still legal" []
    (rules (Verify.statespace g))

let test_prune_drops_data_implied_edge () =
  let g = G.create "p" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let c2 = G.add g (G.Const 2) [] in
  let f = G.add g (G.Fe "a") [ tok; c2 ] in
  (* read-modify-write of the same cell: the value path f -> st already
     forces the order, the explicit edge is redundant *)
  let st = G.add g (G.St "a") [ tok; c2; f ] in
  G.add_order g st ~after:f;
  let report = Addr.prune g in
  Alcotest.(check int) "redundant edge dropped" 1 report.T.Disambig.removed;
  Alcotest.(check int) "no order edges left" 0 (T.Disambig.order_edge_count g);
  Alcotest.(check (list string)) "statespace still legal" []
    (rules (Verify.statespace g))

let test_prune_idempotent () =
  let result =
    Fpfa_core.Flow.map_source
      (Fpfa_kernels.Kernels.find "fir-dl-8").Fpfa_kernels.Kernels.source
  in
  (* the flow already pruned once; a second application finds nothing *)
  let again = Addr.prune result.Fpfa_core.Flow.graph in
  Alcotest.(check int) "second run removes nothing" 0
    again.T.Disambig.removed;
  Alcotest.(check int) "second run retargets nothing" 0
    again.T.Disambig.retargeted

(* {2 The delay-line FIR family: the pass's headline workload} *)

(* The delay-line family is pruned and verified at every size; the
   schedule-depth check also covers kernels without false edges. *)
let test_delay_line_fir_prunes () =
  let module K = Fpfa_kernels.Kernels in
  let off =
    { Fpfa_core.Flow.default_config with Fpfa_core.Flow.disambiguate = false }
  in
  let delay_line =
    List.map (fun taps -> K.fir_delay ~taps) [ 8; 16; 64; 256 ]
  in
  List.iter
    (fun (k : K.t) ->
      let r_off = Fpfa_core.Flow.map_source ~config:off k.K.source in
      let r_on = Fpfa_core.Flow.map_source k.K.source in
      let check what = Alcotest.(check bool) (k.K.name ^ ": " ^ what) true in
      check "schedule never gets deeper"
        (Mapping.Sched.level_count r_on.Fpfa_core.Flow.schedule
        <= Mapping.Sched.level_count r_off.Fpfa_core.Flow.schedule);
      if List.memq k delay_line then begin
        check "edges survive simplification"
          (T.Disambig.order_edge_count r_off.Fpfa_core.Flow.graph > 0);
        check "a nonzero fraction is removed"
          (r_on.Fpfa_core.Flow.disambig_report.T.Disambig.removed > 0);
        check "pruned flow verifies"
          (Fpfa_core.Flow.verify ~memory_init:k.K.inputs r_on);
        check "unpruned flow verifies"
          (Fpfa_core.Flow.verify ~memory_init:k.K.inputs r_off);
        Alcotest.(check (list string))
          (k.K.name ^ ": statespace legal after pruning")
          []
          (rules (Verify.statespace r_on.Fpfa_core.Flow.graph))
      end)
    (delay_line @ [ K.fir ~taps:16; K.fir_paper; K.matmul ~n:4 ])

(* {2 Corruption: the verifier catches illegal edge removal} *)

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

let test_corrupt_oracle_fails_verification () =
  let g, _, _ = aliasing_graph () in
  (* an oracle that calls everything disjoint deletes the load-bearing
     edge; the statespace replay in the verify hook must catch it and
     blame the pass *)
  let broken : T.Disambig.oracle = fun _ _ -> T.Disambig.Disjoint in
  let verify rule g touched =
    Verify.pass_hook () rule g touched;
    match D.errors (Verify.statespace g) with
    | [] -> ()
    | errs -> raise (D.Failed errs)
  in
  match T.Disambig.prune ~verify ~oracle:broken g with
  | (_ : T.Disambig.report) ->
    Alcotest.fail "broken oracle escaped verification"
  | exception T.Pass.Verification_failed { rule; error } -> (
    Alcotest.(check string) "blamed rule" "disambig" rule;
    match error with
    | D.Failed diags ->
      Alcotest.(check (list string)) "payload names the statespace rule"
        [ "cdfg.statespace-order" ] (rules diags)
    | e -> raise e)

(* {2 Properties} *)

(* Static programs go through the full flow twice: pruning must leave
   evaluation bit-identical, the mapped job conformant, and the schedule
   no deeper. *)
let prune_preserves_flow_static =
  QCheck.Test.make ~name:"disambig on vs off: flow results identical (static)"
    ~count:100 Gen.program (fun program ->
      let f = List.hd program in
      let off =
        { Fpfa_core.Flow.default_config with
          Fpfa_core.Flow.disambiguate = false }
      in
      let r_on = Fpfa_core.Flow.map_func f in
      let r_off = Fpfa_core.Flow.map_func ~config:off f in
      let e_on =
        Cdfg.Eval.run ~memory_init:Gen.memory_init r_on.Fpfa_core.Flow.graph
      in
      let e_off =
        Cdfg.Eval.run ~memory_init:Gen.memory_init r_off.Fpfa_core.Flow.graph
      in
      Cdfg.Eval.equal_result e_on e_off
      && Fpfa_core.Flow.verify ~memory_init:Gen.memory_init r_on
      && Mapping.Sched.level_count r_on.Fpfa_core.Flow.schedule
         <= Mapping.Sched.level_count r_off.Fpfa_core.Flow.schedule)

(* Dynamic (masked) offsets cannot map to the tile, but they are where
   pruning decisions get interesting: evaluation snapshots must stay
   bit-identical (order edges are invisible to Eval by construction) and
   the statespace replay must stay clean after the edits. *)
let prune_preserves_eval_dynamic =
  QCheck.Test.make
    ~name:"disambig preserves evaluation and legality (dynamic)" ~count:250
    Gen.dyn_program (fun program ->
      let unrolled = Cfront.Unroll.unroll_program program in
      let g = Cdfg.Builder.build_func (List.hd unrolled) in
      ignore (T.Simplify.minimize g);
      let before = Cdfg.Eval.run ~memory_init:Gen.memory_init g in
      let legal_before = D.errors (Verify.statespace g) = [] in
      let report = Addr.prune g in
      let after = Cdfg.Eval.run ~memory_init:Gen.memory_init g in
      legal_before
      && Cdfg.Eval.equal_result before after
      && D.errors (Verify.statespace g) = []
      && report.T.Disambig.order_edges_after
         <= report.T.Disambig.order_edges_before)

let suite =
  [
    Alcotest.test_case "affine forms" `Quick test_affine_forms;
    Alcotest.test_case "negative strides" `Quick test_negative_stride_forms;
    Alcotest.test_case "relation decisions" `Quick test_relation_decisions;
    Alcotest.test_case "regions never alias" `Quick
      test_relation_across_regions;
    Alcotest.test_case "prune: disjoint edge removed" `Quick
      test_prune_removes_disjoint_edge;
    Alcotest.test_case "prune: aliasing edges kept" `Quick
      test_prune_keeps_aliasing_edges;
    Alcotest.test_case "prune: transitive constraint retargeted" `Quick
      test_prune_retargets_transitive_constraint;
    Alcotest.test_case "prune: data-implied edge dropped" `Quick
      test_prune_drops_data_implied_edge;
    Alcotest.test_case "prune: idempotent" `Quick test_prune_idempotent;
    Alcotest.test_case "delay-line FIR prunes and verifies" `Quick
      test_delay_line_fir_prunes;
    Alcotest.test_case "corrupt: removed aliasing edge" `Quick
      test_corrupt_removed_aliasing_edge;
    Alcotest.test_case "corrupt: broken oracle blamed" `Quick
      test_corrupt_oracle_fails_verification;
    QCheck_alcotest.to_alcotest prune_preserves_flow_static;
    QCheck_alcotest.to_alcotest prune_preserves_eval_dynamic;
  ]
