(* Unit + property tests for the simplifier's rewrite rules. *)

module G = Cdfg.Graph
module Op = Cdfg.Op
module T = Transform

let build = Cdfg.Builder.build_program

let stats_after rules source =
  let g = build source in
  ignore (T.Simplify.minimize ~rules g);
  G.stats g

(* The builder already folds constant operations and forwards stored
   values ({!Cdfg.Fold}), so the inputs of the tests of those two rules
   are built node by node: [store_x value] stores the node [value g]
   adds into the scalar [x]. *)
let scalar g name =
  G.declare_region g name { G.size = Some 1; implicit = true };
  G.add g (G.Ss_in name) []

let store_x value =
  let g = G.create "main" in
  let x = scalar g "x" in
  let zero = G.add g (G.Const 0) [] in
  let st = G.add g (G.St "x") [ x; zero; value g ] in
  ignore (G.add g (G.Ss_out "x") [ st ]);
  g

let const g n = G.add g (G.Const n) []

let cell result name =
  Option.map (fun a -> a.(0)) (List.assoc_opt name result.Cdfg.Eval.memory)

let test_const_fold_binop () =
  (* x = 2 + 3 * 4 *)
  let g =
    store_x (fun g ->
        let product = G.add g (G.Binop Op.Mul) [ const g 3; const g 4 ] in
        G.add g (G.Binop Op.Add) [ const g 2; product ])
  in
  ignore (T.Simplify.minimize ~rules:[ T.Rewrites.const_fold_rule; T.Dce.rule ] g);
  let s = G.stats g in
  Alcotest.(check int) "no arithmetic left" 0 (s.G.adds + s.G.multiplies + s.G.other_alu);
  Alcotest.(check (option int)) "value" (Some 14) (cell (Cdfg.Eval.run g) "x")

let test_const_fold_mux () =
  (* x = 1 ? 5 : 7 *)
  let g =
    store_x (fun g -> G.add g G.Mux [ const g 1; const g 5; const g 7 ])
  in
  ignore (T.Simplify.minimize ~rules:[ T.Rewrites.const_fold_rule; T.Dce.rule ] g);
  Alcotest.(check int) "mux folded" 0 (G.stats g).G.muxes;
  Alcotest.(check (option int)) "value" (Some 5) (cell (Cdfg.Eval.run g) "x")

let test_algebraic_identities () =
  let cases =
    [
      ("void main() { x = y + 0; }", `No_alu);
      ("void main() { x = 0 + y; }", `No_alu);
      ("void main() { x = y * 1; }", `No_alu);
      ("void main() { x = y - 0; }", `No_alu);
      ("void main() { x = y / 1; }", `No_alu);
      ("void main() { x = y << 0; }", `No_alu);
      ("void main() { x = y | 0; }", `No_alu);
      ("void main() { x = y ^ 0; }", `No_alu);
      ("void main() { x = y * 0; }", `No_alu);
      ("void main() { x = y - y; }", `No_alu);
      ("void main() { x = y ^ y; }", `No_alu);
      ("void main() { x = y == y; }", `No_alu);
    ]
  in
  List.iter
    (fun (source, _) ->
      let s =
        stats_after
          [
            T.Rewrites.const_fold_rule; T.Cse.rule; T.Rewrites.algebraic_rule;
            T.Dce.rule;
          ]
          source
      in
      Alcotest.(check int) (source ^ " simplified") 0
        (s.G.adds + s.G.multiplies + s.G.other_alu))
    cases

let test_mux_same_branches () =
  let g = build "void main() { x = c ? y : y; }" in
  ignore
    (T.Simplify.minimize
       ~rules:[ T.Cse.rule; T.Rewrites.algebraic_rule; T.Dce.rule ]
       g);
  Alcotest.(check int) "mux gone" 0 (G.stats g).G.muxes

let test_cse_merges_fetches () =
  let g = build "void main() { x = a[0] + a[0]; }" in
  Alcotest.(check int) "two fetches before" 2 (G.stats g).G.fetches;
  ignore (T.Simplify.minimize ~rules:[ T.Cse.rule; T.Dce.rule ] g);
  Alcotest.(check int) "one fetch after" 1 (G.stats g).G.fetches

let test_cse_commutative () =
  let g = build "void main() { x = a[0] + a[1]; y = a[1] + a[0]; }" in
  ignore (T.Simplify.minimize ~rules:[ T.Cse.rule; T.Dce.rule ] g);
  Alcotest.(check int) "one add" 1 (G.stats g).G.adds

let test_cse_does_not_merge_noncommutative () =
  let g = build "void main() { x = a[0] - a[1]; y = a[1] - a[0]; }" in
  ignore (T.Simplify.minimize ~rules:[ T.Cse.rule; T.Dce.rule ] g);
  Alcotest.(check int) "two subs" 2 (G.stats g).G.adds

let test_forwarding_scalar () =
  (* x = 5; y = x + 1, with the fetch of x the builder would forward *)
  let g = G.create "main" in
  let x = scalar g "x" and y = scalar g "y" in
  let zero = const g 0 in
  let st_x = G.add g (G.St "x") [ x; zero; const g 5 ] in
  let fe = G.add g (G.Fe "x") [ st_x; zero ] in
  let sum = G.add g (G.Binop Op.Add) [ fe; const g 1 ] in
  let st_y = G.add g (G.St "y") [ y; zero; sum ] in
  ignore (G.add g (G.Ss_out "x") [ st_x ]);
  ignore (G.add g (G.Ss_out "y") [ st_y ]);
  ignore
    (T.Simplify.minimize ~rules:[ T.Forward.store_to_fetch_rule; T.Dce.rule ] g);
  let s = G.stats g in
  (* x's value forwards into y; both stores remain (observable), but no
     fetch is needed. *)
  Alcotest.(check int) "no fetches" 0 s.G.fetches;
  Alcotest.(check int) "stores remain" 2 s.G.stores;
  Alcotest.(check (option int)) "y" (Some 6) (cell (Cdfg.Eval.run g) "y")

let test_forwarding_skips_other_addresses () =
  let g = build "void main() { b[0] = 1; x = b[1]; }" in
  ignore (T.Simplify.minimize g);
  (* the fetch of b[1] must skip over the store to b[0] and read ss_in *)
  let fe_token =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with
        | G.Fe "b" -> Some (List.nth (G.inputs g n.G.id) 0)
        | _ -> acc)
  in
  match fe_token with
  | Some token ->
    Alcotest.(check bool) "anchored on ss_in" true
      (match G.kind g token with G.Ss_in _ -> true | _ -> false)
  | None -> Alcotest.fail "fetch disappeared"

let test_forwarding_blocked_by_unknown_offset () =
  (* u is unknown, so a[u] may alias a[1]: the fetch must NOT be forwarded
     past the store. *)
  let g = build "void main() { a[u] = 5; x = a[1]; }" in
  ignore (T.Simplify.minimize g);
  let fe_token =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with
        | G.Fe "a" -> Some (List.nth (G.inputs g n.G.id) 0)
        | _ -> acc)
  in
  match fe_token with
  | Some token ->
    Alcotest.(check bool) "still behind the store" true
      (match G.kind g token with G.St "a" -> true | _ -> false)
  | None -> Alcotest.fail "fetch disappeared"

let test_dead_store_elimination () =
  let g = build "void main() { x = 1; x = 2; x = 3; }" in
  ignore (T.Simplify.minimize g);
  Alcotest.(check int) "one store survives" 1 (G.stats g).G.stores;
  let result = Cdfg.Eval.run g in
  Alcotest.(check (option int)) "last value" (Some 3)
    (Option.map (fun a -> a.(0)) (List.assoc_opt "x" result.Cdfg.Eval.memory))

let test_dead_store_keeps_read_values () =
  let g = build "void main() { x = 1; y = x; x = 2; }" in
  ignore (T.Simplify.minimize g);
  let result = Cdfg.Eval.run g in
  let cell name =
    Option.map (fun a -> a.(0)) (List.assoc_opt name result.Cdfg.Eval.memory)
  in
  Alcotest.(check (option int)) "y saw 1" (Some 1) (cell "y");
  Alcotest.(check (option int)) "x ends 2" (Some 2) (cell "x")

let test_dce_removes_unused () =
  let g = build "void main() { x = a[0] + a[1]; }" in
  (* make the expression dead by overwriting x *)
  let g2 = build "void main() { x = a[0] + a[1]; x = 0; }" in
  ignore (T.Simplify.minimize g);
  ignore (T.Simplify.minimize g2);
  Alcotest.(check bool) "dead adder removed" true
    ((G.stats g2).G.adds = 0 && (G.stats g2).G.fetches = 0);
  Alcotest.(check int) "live adder kept" 1 (G.stats g).G.adds

let test_reassociation_balances () =
  let g =
    build "void main() { x = a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7]; }"
  in
  let before = (G.stats g).G.critical_path in
  ignore (T.Simplify.minimize g);
  let s = G.stats g in
  Alcotest.(check int) "adds preserved" 7 s.G.adds;
  (* the 7-add chain becomes a log2(8) = 3-level tree; the critical path
     also carries ss_in, FE, ST and ss_out *)
  Alcotest.(check bool) "depth reduced" true (s.G.critical_path < before);
  Alcotest.(check bool) "balanced" true (s.G.critical_path <= 7)

(* Every member of a chain is visited. A rule that walks the whole chain
   at each visit walks 147 nodes per raw node on fir-512, 8x what it
   walks per raw node on fir-64; examining each chain root once per
   graph state keeps the walk per raw node nearly flat. *)
let test_reassociation_walk_linear () =
  let module Obs = Fpfa_obs.Obs in
  let walked taps =
    let k = Fpfa_kernels.Kernels.fir ~taps in
    let g = Cdfg.Builder.build_func (List.hd (Cfront.Unroll.unroll_program
      (Cfront.Parser.parse_program k.Fpfa_kernels.Kernels.source))) in
    let raw = G.node_count g in
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () -> Obs.disable (); Obs.reset ())
      (fun () ->
        ignore (T.Simplify.minimize g);
        let count name = Option.value ~default:0 (Obs.find_counter name) in
        Alcotest.(check bool)
          (Printf.sprintf "fir-%d rebalances its chain" taps)
          true
          (count "pass.fire.reassociate" >= 1);
        float_of_int (count "reassoc.walked") /. float_of_int raw)
  in
  let per_node = List.map walked [ 64; 128; 256; 512 ] in
  let growth = List.nth per_node 3 /. List.hd per_node in
  if growth > 2.0 then
    Alcotest.failf "walk per raw node grew %.2fx from fir-64 to fir-512 (%s)"
      growth
      (String.concat ", " (List.map (Printf.sprintf "%.2f") per_node))

let test_fir_fig3_shape () =
  let g = build Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source in
  let report = T.Simplify.minimize g in
  let s = report.T.Simplify.after in
  Alcotest.(check int) "10 fetches (a0-a4, c0-c4)" 10 s.G.fetches;
  Alcotest.(check int) "2 stores (sum, i)" 2 s.G.stores;
  Alcotest.(check int) "5 multiplies" 5 s.G.multiplies;
  Alcotest.(check int) "4 adds" 4 s.G.adds;
  Alcotest.(check int) "no muxes" 0 s.G.muxes

let test_simplify_never_grows () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let g = build k.Fpfa_kernels.Kernels.source in
      let report = T.Simplify.minimize g in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " shrinks")
        true
        (report.T.Simplify.after.G.total <= report.T.Simplify.before.G.total))
    Fpfa_kernels.Kernels.all

(* The soundness requirement on order edges: a store/delete that may
   overwrite the cell a fetch reads (same region, offsets not provably
   different) while consuming the fetch's token version — or a later one
   reached only through non-aliasing mutators — must be preceded by the
   fetch in the data+order partial order. The first aliasing mutator on
   each chain suffices: anything deeper consumes its token and is behind
   it transitively. *)
let anti_deps_sound g =
  let precedes src dst =
    let seen = ref G.Id_set.empty in
    let rec go id =
      id = dst
      || (not (G.Id_set.mem id !seen))
         && begin
              seen := G.Id_set.add id !seen;
              List.exists go
                (List.map fst (G.consumers_of g id)
                @ G.order_successors g id)
            end
    in
    go src
  in
  let token_consumers id =
    List.filter_map
      (fun (c, port) ->
        match G.kind g c with
        | (G.St _ | G.Del _ | G.Ss_out _) when port = 0 -> Some c
        | _ -> None)
      (G.consumers_of g id)
  in
  let ok = ref true in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe region ->
        let fe = n.G.id in
        let offset = n.G.inputs.(1) in
        let rec chase token =
          List.iter
            (fun m ->
              match G.kind g m with
              | (G.St r | G.Del r) when String.equal r region -> (
                let m_off = List.nth (G.inputs g m) 1 in
                match Cdfg.Fold.relate g m_off offset with
                | Cdfg.Fold.Different -> chase m
                | Cdfg.Fold.Equal | Cdfg.Fold.Unknown ->
                  if not (precedes fe m) then ok := false)
              | _ -> ())
            (token_consumers token)
        in
        chase n.G.inputs.(0)
      | _ -> ());
  !ok

(* A from-scratch second run of the default rules over a minimised graph
   must find nothing left to rewrite: the engine stops at a fixpoint of
   its own rules, not merely when its worklist happens to drain. *)
let at_sound_fixpoint g =
  ignore (T.Simplify.minimize g);
  let again = T.Pass.run_worklist T.Simplify.default_rules g in
  again.T.Pass.rewrites = 0 && anti_deps_sound g

let fixpoint_on_programs =
  QCheck.Test.make ~name:"minimise reaches a sound fixpoint (programs)"
    ~count:250 Gen.program (fun program ->
      let unrolled = Cfront.Unroll.unroll_program program in
      at_sound_fixpoint (Cdfg.Builder.build_func (List.hd unrolled)))

let fixpoint_on_random_graphs =
  QCheck.Test.make ~name:"minimise reaches a sound fixpoint (random DAGs)"
    ~count:50
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      at_sound_fixpoint (Fpfa_kernels.Random_graph.generate ~seed ~ops:60 ()))

(* Property: the default pipeline preserves evaluation on generated
   programs. *)
let simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplification preserves evaluation" ~count:250
    Gen.program (fun program ->
      let unrolled = Cfront.Unroll.unroll_program program in
      let g = Cdfg.Builder.build_func (List.hd unrolled) in
      let before = Cdfg.Eval.run ~memory_init:Gen.memory_init g in
      ignore (T.Simplify.minimize g);
      let after = Cdfg.Eval.run ~memory_init:Gen.memory_init g in
      Cdfg.Eval.equal_result before after)

(* Property: each rule, run to its fixpoint with only dead-node
   elimination beside it, preserves evaluation on random mapped graphs.
   DCE keeps rules that leave dead duplicates behind (CSE, rebalancing)
   from feeding themselves forever. *)
let each_rule_preserves =
  let with_dce (r : T.Pass.rule) =
    if String.equal r.T.Pass.rname T.Dce.rule.T.Pass.rname then [ r ]
    else [ r; T.Dce.rule ]
  in
  QCheck.Test.make ~name:"every rule alone preserves evaluation" ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:40 () in
      let inputs = Fpfa_kernels.Random_graph.random_inputs g in
      let before = Cdfg.Eval.run ~memory_init:inputs g in
      List.for_all
        (fun rule ->
          let g' = G.copy g in
          ignore (T.Simplify.minimize ~rules:(with_dce rule) g');
          let after = Cdfg.Eval.run ~memory_init:inputs g' in
          Cdfg.Eval.equal_result before after)
        T.Simplify.default_rules)

(* A worklist step whose node no rule rewrites allocates nothing: a
   second run over a minimised graph fires no rule, so its allocation is
   the run's fixed set-up (queues, rule closures, the span). CSE is left
   out because it stores one key per node on that node's first visit.
   The set-up comes to about one word per step here; the bound is a
   small fraction of what a step allocated when the rules built node
   records and the engine built input and successor lists. *)
let test_idle_steps_allocate_nothing () =
  let g = build (Fpfa_kernels.Kernels.matmul ~n:6).Fpfa_kernels.Kernels.source in
  ignore (T.Simplify.minimize g);
  let rules =
    List.filter
      (fun r -> not (String.equal r.T.Pass.rname "cse"))
      T.Simplify.default_rules
  in
  let before = Gc.minor_words () in
  let report = T.Pass.run_worklist rules g in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "nothing fires" 0 report.T.Pass.rewrites;
  if words > 4.0 *. float_of_int report.T.Pass.steps then
    Alcotest.failf "%.0f minor words over %d idle steps" words
      report.T.Pass.steps

let suite =
  [
    Alcotest.test_case "const fold binop" `Quick test_const_fold_binop;
    Alcotest.test_case "const fold mux" `Quick test_const_fold_mux;
    Alcotest.test_case "algebraic identities" `Quick test_algebraic_identities;
    Alcotest.test_case "mux same branches" `Quick test_mux_same_branches;
    Alcotest.test_case "cse fetches" `Quick test_cse_merges_fetches;
    Alcotest.test_case "cse commutative" `Quick test_cse_commutative;
    Alcotest.test_case "cse non-commutative" `Quick test_cse_does_not_merge_noncommutative;
    Alcotest.test_case "scalar forwarding" `Quick test_forwarding_scalar;
    Alcotest.test_case "skip other addresses" `Quick test_forwarding_skips_other_addresses;
    Alcotest.test_case "unknown offset blocks" `Quick test_forwarding_blocked_by_unknown_offset;
    Alcotest.test_case "dead store" `Quick test_dead_store_elimination;
    Alcotest.test_case "dead store + reader" `Quick test_dead_store_keeps_read_values;
    Alcotest.test_case "dce" `Quick test_dce_removes_unused;
    Alcotest.test_case "reassociation" `Quick test_reassociation_balances;
    Alcotest.test_case "reassociation walk linear" `Quick
      test_reassociation_walk_linear;
    Alcotest.test_case "FIR Fig.3 shape" `Quick test_fir_fig3_shape;
    Alcotest.test_case "simplify never grows" `Quick test_simplify_never_grows;
    Alcotest.test_case "idle steps allocate nothing" `Quick
      test_idle_steps_allocate_nothing;
    QCheck_alcotest.to_alcotest simplify_preserves_semantics;
    QCheck_alcotest.to_alcotest each_rule_preserves;
    QCheck_alcotest.to_alcotest fixpoint_on_programs;
    QCheck_alcotest.to_alcotest fixpoint_on_random_graphs;
  ]
