(* Tests for the verifier / lint / mapping-validator subsystem: clean
   artefacts produce no diagnostics, and a battery of seeded corruptions
   each trips its specific rule id. *)

module G = Cdfg.Graph
module D = Fpfa_diag.Diag
module T = Transform
module Verify = Fpfa_analysis.Verify
module Lint = Fpfa_analysis.Lint
module Dataflow = Fpfa_analysis.Dataflow
module Arch = Fpfa_arch.Arch
module Cluster = Mapping.Cluster
module Sched = Mapping.Sched
module Job = Mapping.Job
module Sim = Fpfa_sim.Sim

let kernel name =
  (Fpfa_kernels.Kernels.find name).Fpfa_kernels.Kernels.source

let map_kernel name = Fpfa_core.Flow.map_source (kernel name)

let flags what rule diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s" what rule)
    true (D.has_rule rule diags)

let rules diags = List.sort_uniq compare (List.map (fun d -> d.D.rule) diags)

(* Each rule set has one checker and a raising entry point that raises
   the checker's first finding: [raise_of] builds the expected exception
   from its message. *)
let raises_first what diags raise_of f =
  match diags with
  | [] -> Alcotest.failf "%s: no finding" what
  | d :: _ ->
    Alcotest.check_raises (what ^ " raises the first finding")
      (raise_of d.D.message) f

(* A corrupted graph: [Verify.structure] flags [rule], and
   [Graph.validate] raises the same checker's first finding. *)
let graph_flags what rule g =
  let diags = Verify.structure g in
  flags what rule diags;
  raises_first what diags (fun m -> G.Invalid m) (fun () -> G.validate g)

let mappability_flags what rule g =
  let diags = Verify.mappability g in
  flags what rule diags;
  raises_first what diags
    (fun m -> Mapping.Legalize.Unmappable m)
    (fun () -> Mapping.Legalize.check g)

(* A corrupted clustering (checked against the paper ALU) or schedule (on
   the 5-ALU tile), likewise. *)
let cluster_flags what rule c =
  let diags = Cluster.check_diags c Arch.paper_alu in
  flags what rule diags;
  raises_first what diags
    (fun m -> Cluster.Clustering_error m)
    (fun () -> Cluster.validate c Arch.paper_alu)

let sched_flags what rule s =
  let diags = Sched.check_diags s ~alu_count:5 in
  flags what rule diags;
  raises_first what diags
    (fun m -> Sched.Scheduling_error m)
    (fun () -> Sched.validate s ~alu_count:5);
  diags

(* A corrupted job: the simulator's walk reports [rule], and a run
   raises its first finding. *)
let alloc_flags what rule job =
  let diags = Sim.check_diags job in
  flags what rule diags;
  raises_first what diags (fun m -> Sim.Fault m) (fun () -> ignore (Sim.run job));
  diags

(* {2 Clean artefacts produce no error diagnostics} *)

let test_clean_corpus () =
  List.iter
    (fun name ->
      let result = map_kernel name in
      let graph = result.Fpfa_core.Flow.graph in
      Alcotest.(check (list string))
        (name ^ " raw structure") []
        (rules (Verify.structure result.Fpfa_core.Flow.raw_graph));
      Alcotest.(check (list string))
        (name ^ " minimised verifier") []
        (rules
           (Verify.structure graph @ Verify.mappability graph
           @ Verify.statespace graph));
      Alcotest.(check (list string))
        (name ^ " lint errors") []
        (rules (D.errors (Lint.run graph)));
      Alcotest.(check (list string))
        (name ^ " cluster") []
        (rules
           (Cluster.check_diags result.Fpfa_core.Flow.clustering
              Arch.paper_alu));
      Alcotest.(check (list string))
        (name ^ " sched") []
        (rules
           (Sched.check_diags result.Fpfa_core.Flow.schedule ~alu_count:5));
      Alcotest.(check (list string))
        (name ^ " alloc") []
        (rules (Sim.check_diags result.Fpfa_core.Flow.job)))
    [ "fir-paper"; "dot-8"; "iir-6" ]

let test_index_errors_exported () =
  let result = map_kernel "fir-paper" in
  Alcotest.(check (list string))
    "incremental index consistent after minimisation" []
    (G.index_errors result.Fpfa_core.Flow.graph)

(* {2 Seeded CDFG corruptions, one per structure rule} *)

(* add/set_inputs/add_order guard arity and references at mutation time
   ([graph] > [arity] and [dangling]), and the arena stores exactly
   [arity kind] inputs, so the corruptions below break the rules the
   mutators leave to the checker. *)

let test_corrupt_port_type () =
  let g = G.create "c" in
  G.declare_region g "a" { G.size = Some 1; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let c = G.add g (G.Const 1) [] in
  (* add checks arity, not port typing: a token flows into an adder. *)
  let _bad = G.add g (G.Binop Cdfg.Op.Add) [ tok; c ] in
  graph_flags "token into Binop" "cdfg.port-type" g

let test_corrupt_token_region () =
  let g = G.create "c" in
  G.declare_region g "a" { G.size = Some 1; implicit = true };
  G.declare_region g "b" { G.size = Some 1; implicit = true };
  let tok_a = G.add g (G.Ss_in "a") [] in
  let off = G.add g (G.Const 0) [] in
  let _bad = G.add g (G.Fe "b") [ tok_a; off ] in
  graph_flags "region-a token into region-b fetch" "cdfg.token-region" g

let test_corrupt_region_undeclared () =
  let g = G.create "c" in
  let _bad = G.add g (G.Ss_in "ghost") [] in
  graph_flags "undeclared region" "cdfg.region-undeclared" g

let test_corrupt_duplicate_ss () =
  let g = G.create "c" in
  G.declare_region g "a" { G.size = Some 1; implicit = true };
  let _t1 = G.add g (G.Ss_in "a") [] in
  let _t2 = G.add g (G.Ss_in "a") [] in
  graph_flags "two Ss_in" "cdfg.region-duplicate-ss" g

let test_corrupt_output_invalid () =
  let g = G.create "c" in
  G.declare_region g "a" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "a") [] in
  let off = G.add g (G.Const 0) [] in
  let v = G.add g (G.Const 7) [] in
  let st = G.add g (G.St "a") [ tok; off; v ] in
  (* set_output checks existence, not valueness: bind a token producer. *)
  G.set_output g "x" st;
  graph_flags "token as named output" "cdfg.output-invalid" g

let test_corrupt_cycle () =
  let g = G.create "c" in
  let a = G.add g (G.Const 1) [] in
  let b = G.add g (G.Const 2) [] in
  G.add_order g a ~after:b;
  G.add_order g b ~after:a;
  graph_flags "order-edge 2-cycle" "cdfg.cycle" g

(* {2 Mappability corruptions} *)

let ss_graph ~offset_kind =
  let g = G.create "m" in
  G.declare_region g "a" { G.size = Some 4; implicit = true };
  let tok = G.add g (G.Ss_in "a") [] in
  let off =
    match offset_kind with
    | `Dynamic ->
      let z = G.add g (G.Const 0) [] in
      G.add g (G.Unop Cdfg.Op.Neg) [ z ]
    | `Negative -> G.add g (G.Const (-2)) []
  in
  let _fe = G.add g (G.Fe "a") [ tok; off ] in
  g

let test_corrupt_offset_dynamic () =
  let g = ss_graph ~offset_kind:`Dynamic in
  mappability_flags "computed offset" "ss.offset-dynamic" g;
  Alcotest.check_raises "check still raises"
    (Mapping.Legalize.Unmappable
       "node 3 has a dynamic statespace offset (unroll and simplify first)")
    (fun () -> Mapping.Legalize.check g)

let test_corrupt_offset_negative () =
  mappability_flags "negative offset" "ss.offset-negative"
    (ss_graph ~offset_kind:`Negative)

let test_corrupt_output_not_stored () =
  let g = G.create "m" in
  let v = G.add g (G.Const 3) [] in
  G.set_output g "x" v;
  mappability_flags "unstored output" "ss.output-not-stored" g

(* {2 Lints} *)

let test_lint_dead_node () =
  let g = G.create "l" in
  G.declare_region g "x" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "x") [] in
  let off = G.add g (G.Const 0) [] in
  let v = G.add g (G.Const 4) [] in
  let _st = G.add g (G.St "x") [ tok; off; v ] in
  let a = G.add g (G.Const 2) [] in
  let _dead = G.add g (G.Binop Cdfg.Op.Add) [ a; a ] in
  let diags = Lint.run g in
  flags "unconsumed adder" "lint.dead-node" diags;
  Alcotest.(check bool) "the store is not dead" false
    (D.has_rule "lint.dead-store" diags)

let test_lint_dead_store () =
  let g = G.create "l" in
  G.declare_region g "x" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "x") [] in
  let off = G.add g (G.Const 0) [] in
  let v1 = G.add g (G.Const 4) [] in
  let v2 = G.add g (G.Const 5) [] in
  let st1 = G.add g (G.St "x") [ tok; off; v1 ] in
  let _st2 = G.add g (G.St "x") [ st1; off; v2 ] in
  let diags = Lint.run g in
  flags "overwritten-unread store" "lint.dead-store" diags;
  Alcotest.(check int) "exactly one dead store" 1
    (List.length
       (List.filter (fun d -> String.equal d.D.rule "lint.dead-store") diags))

let test_lint_dead_store_read_between () =
  let g = G.create "l" in
  G.declare_region g "x" { G.size = Some 1; implicit = false };
  G.declare_region g "y" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "x") [] in
  let ytok = G.add g (G.Ss_in "y") [] in
  let off = G.add g (G.Const 0) [] in
  let v1 = G.add g (G.Const 4) [] in
  let v2 = G.add g (G.Const 5) [] in
  let st1 = G.add g (G.St "x") [ tok; off; v1 ] in
  let fe = G.add g (G.Fe "x") [ st1; off ] in
  let st2 = G.add g (G.St "x") [ st1; off; v2 ] in
  G.add_order g st2 ~after:fe;
  let _sty = G.add g (G.St "y") [ ytok; off; fe ] in
  Alcotest.(check bool) "intervening fetch keeps the store" false
    (D.has_rule "lint.dead-store" (Lint.run g))

let test_lint_fetch_uninit () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 2; implicit = false };
  G.declare_region g "inp" { G.size = Some 2; implicit = true };
  let t1 = G.add g (G.Ss_in "loc") [] in
  let t2 = G.add g (G.Ss_in "inp") [] in
  let off = G.add g (G.Const 0) [] in
  let f1 = G.add g (G.Fe "loc") [ t1; off ] in
  let _f2 = G.add g (G.Fe "inp") [ t2; off ] in
  G.set_output g "x" f1;
  let diags = Lint.run g in
  flags "read of uninitialised local" "lint.fetch-uninit" diags;
  Alcotest.(check int) "implicit (input) region exempt" 1
    (List.length
       (List.filter (fun d -> String.equal d.D.rule "lint.fetch-uninit") diags))

let test_lint_range_overflow () =
  let g = Cdfg.Builder.build_program "void main() { x = a * b; }" in
  flags "16-bit product" "bits.widening-overflow"
    (Fpfa_analysis.Bits.diagnostics g)

(* An opaque-but-masked index: Fe of an implicit region, & with a
   constant. The address analysis bounds it to [0, mask]. *)
let masked_index g tok_inp mask =
  let c0 = G.add g (G.Const 0) [] in
  let cm = G.add g (G.Const mask) [] in
  let raw = G.add g (G.Fe "inp") [ tok_inp; c0 ] in
  G.add g (G.Binop Cdfg.Op.Band) [ raw; cm ]

let test_lint_band_fetch_uninit () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 8; implicit = false };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let idx = masked_index g ti 7 in
  let f1 = G.add g (G.Fe "loc") [ tl; idx ] in
  let c3 = G.add g (G.Const 3) [] in
  let v = G.add g (G.Const 9) [] in
  let st = G.add g (G.St "loc") [ tl; c3; v ] in
  let f2 = G.add g (G.Fe "loc") [ st; idx ] in
  G.set_output g "a" f1;
  G.set_output g "b" f2;
  let diags = Lint.run g in
  flags "band fetch of a never-written region" "lint.fetch-uninit" diags;
  Alcotest.(check int)
    "only the pre-store band fetch is flagged (one touched cell suffices)" 1
    (List.length
       (List.filter (fun d -> String.equal d.D.rule "lint.fetch-uninit") diags));
  Alcotest.(check bool) "no suppression: the band is bounded" false
    (D.has_rule "lint.suppressed" diags)

let test_lint_band_store_not_dead () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 8; implicit = false };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let idx = masked_index g ti 7 in
  let c0 = G.add g (G.Const 0) [] in
  let v1 = G.add g (G.Const 4) [] in
  let v2 = G.add g (G.Const 5) [] in
  let st1 = G.add g (G.St "loc") [ tl; c0; v1 ] in
  (* the band store may or may not overwrite loc[0] — a weak update, so
     st1 stays observable *)
  let _st2 = G.add g (G.St "loc") [ st1; idx; v2 ] in
  Alcotest.(check bool) "weak update keeps the earlier store" false
    (D.has_rule "lint.dead-store" (Lint.run g))

let test_lint_suppressed () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 8; implicit = false };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let c0 = G.add g (G.Const 0) [] in
  let v = G.add g (G.Const 9) [] in
  (* unmasked Fe: the analysis only knows the full datapath width, far
     wider than the cell-tracking span — Cell_unknown *)
  let raw = G.add g (G.Fe "inp") [ ti; c0 ] in
  let st = G.add g (G.St "loc") [ tl; raw; v ] in
  let f = G.add g (G.Fe "loc") [ st; c0 ] in
  G.set_output g "r" f;
  let diags = Lint.run g in
  flags "unbounded store offset announces itself" "lint.suppressed" diags;
  Alcotest.(check bool)
    "fetch-uninit is off for the region (the store may init any cell)" false
    (D.has_rule "lint.fetch-uninit" diags);
  Alcotest.(check bool) "suppression is informational" true
    (List.for_all
       (fun d -> d.D.severity = D.Info)
       (List.filter (fun d -> String.equal d.D.rule "lint.suppressed") diags))

let test_lint_suppressed_counts () =
  (* two unbounded stores into one region: still one suppression
     diagnostic, but it must total both accesses (check --json surfaces
     the count) and anchor to the first *)
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 8; implicit = false };
  G.declare_region g "inp" { G.size = Some 2; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let c0 = G.add g (G.Const 0) [] in
  let c1 = G.add g (G.Const 1) [] in
  let v = G.add g (G.Const 9) [] in
  let raw0 = G.add g (G.Fe "inp") [ ti; c0 ] in
  let raw1 = G.add g (G.Fe "inp") [ ti; c1 ] in
  let st0 = G.add g (G.St "loc") [ tl; raw0; v ] in
  let st1 = G.add g (G.St "loc") [ st0; raw1; v ] in
  let f = G.add g (G.Fe "loc") [ st1; c0 ] in
  G.set_output g "r" f;
  let diags = Lint.run g in
  let suppressed =
    List.filter (fun d -> String.equal d.D.rule "lint.suppressed") diags
  in
  match suppressed with
  | [ d ] ->
    let has_sub sub =
      let msg = d.D.message in
      let n = String.length sub and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "totals both suppressing stores" true
      (has_sub "2 store(s)");
    Alcotest.(check (option int)) "anchored to the first store" (Some st0)
      d.D.node
  | l ->
    Alcotest.failf "expected one suppression diagnostic, got %d"
      (List.length l)

let test_lint_suppressed_dead_store () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 8; implicit = false };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let c0 = G.add g (G.Const 0) [] in
  let v1 = G.add g (G.Const 4) [] in
  let v2 = G.add g (G.Const 5) [] in
  let raw = G.add g (G.Fe "inp") [ ti; c0 ] in
  let st1 = G.add g (G.St "loc") [ tl; c0; v1 ] in
  let st2 = G.add g (G.St "loc") [ st1; c0; v2 ] in
  (* an unbounded fetch may read loc[0] between the two stores *)
  let f = G.add g (G.Fe "loc") [ st1; raw ] in
  G.add_order g st2 ~after:f;
  G.set_output g "r" f;
  let diags = Lint.run g in
  flags "unbounded fetch offset announces itself" "lint.suppressed" diags;
  Alcotest.(check bool) "dead-store is off for the region" false
    (D.has_rule "lint.dead-store" diags)

let test_lint_out_of_region () =
  let g = G.create "l" in
  G.declare_region g "loc" { G.size = Some 4; implicit = false };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let tl = G.add g (G.Ss_in "loc") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let idx = masked_index g ti 7 in
  let v = G.add g (G.Const 9) [] in
  (* offset in [0, 7] against a 4-cell region *)
  let st = G.add g (G.St "loc") [ tl; idx; v ] in
  let c2 = G.add g (G.Const 2) [] in
  let f = G.add g (G.Fe "loc") [ st; c2 ] in
  G.set_output g "r" f;
  let diags = Lint.run g in
  flags "bounded offset escaping the size" "addr.out-of-region" diags;
  Alcotest.(check int) "the in-bounds constant fetch is not flagged" 1
    (List.length
       (List.filter (fun d -> String.equal d.D.rule "addr.out-of-region") diags))

let test_lint_overlap_unknown () =
  let g = G.create "l" in
  G.declare_region g "a" { G.size = Some 8; implicit = true };
  G.declare_region g "inp" { G.size = Some 1; implicit = true };
  let ta = G.add g (G.Ss_in "a") [] in
  let ti = G.add g (G.Ss_in "inp") [] in
  let idx = masked_index g ti 7 in
  let c3 = G.add g (G.Const 3) [] in
  let v = G.add g (G.Const 9) [] in
  let fe_dyn = G.add g (G.Fe "a") [ ta; idx ] in
  let st = G.add g (G.St "a") [ ta; c3; v ] in
  G.add_order g st ~after:fe_dyn;
  G.set_output g "r" fe_dyn;
  let diags = Lint.run g in
  flags "undecidable fetch/store pair is reported" "addr.overlap-unknown"
    diags;
  Alcotest.(check bool) "as information, not a warning" true
    (List.for_all
       (fun d -> d.D.severity = D.Info)
       (List.filter
          (fun d -> String.equal d.D.rule "addr.overlap-unknown")
          diags))

let test_reaching_stores () =
  let g = G.create "l" in
  G.declare_region g "x" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "x") [] in
  let off = G.add g (G.Const 0) [] in
  let v = G.add g (G.Const 4) [] in
  let st = G.add g (G.St "x") [ tok; off; v ] in
  let fe = G.add g (G.Fe "x") [ st; off ] in
  G.set_output g "r" fe;
  let reaching = Lint.reaching_stores g in
  Alcotest.(check (list int)) "the store reaches its fetch" [ st ]
    (G.Id_set.elements (reaching fe));
  Alcotest.(check (list int)) "non-fetch nodes have no reaching set" []
    (G.Id_set.elements (reaching st))

let test_liveness () =
  let g = G.create "l" in
  G.declare_region g "x" { G.size = Some 1; implicit = false };
  let tok = G.add g (G.Ss_in "x") [] in
  let off = G.add g (G.Const 0) [] in
  let a = G.add g (G.Const 2) [] in
  let kept = G.add g (G.Binop Cdfg.Op.Add) [ a; a ] in
  let _st = G.add g (G.St "x") [ tok; off; kept ] in
  let dead = G.add g (G.Binop Cdfg.Op.Mul) [ a; kept ] in
  let live = Lint.liveness g in
  Alcotest.(check bool) "stored sum is live" true (live kept);
  Alcotest.(check bool) "its constant is live" true (live a);
  Alcotest.(check bool) "unconsumed product is dead" false (live dead)

(* {2 Mapping-phase corruptions} *)

let test_corrupt_cluster_datapath () =
  let result = map_kernel "fir-paper" in
  let c = result.Fpfa_core.Flow.clustering in
  let cl = c.Cluster.clusters.(0) in
  let fat =
    match cl.Cluster.cinputs with
    | i :: _ -> [ i; i; i; i; i ]
    | [] -> List.init 5 (fun _ -> Option.get cl.Cluster.root)
  in
  c.Cluster.clusters.(0) <- { cl with Cluster.cinputs = fat };
  cluster_flags "5-operand cluster" "cluster.datapath" c

let test_corrupt_cluster_empty () =
  let result = map_kernel "fir-paper" in
  let c = result.Fpfa_core.Flow.clustering in
  let cl = c.Cluster.clusters.(0) in
  c.Cluster.clusters.(0) <-
    { cl with Cluster.ops = []; root = None; stores = []; deletes = [];
      cinputs = [] };
  cluster_flags "hollowed-out cluster" "cluster.empty" c

let test_corrupt_cluster_coverage () =
  let result = map_kernel "fir-paper" in
  let c = result.Fpfa_core.Flow.clustering in
  let victim = ref (-1) in
  Array.iteri (fun id cid -> if cid >= 0 then victim := id) c.Cluster.cluster_of;
  c.Cluster.cluster_of.(!victim) <- -1;
  cluster_flags "unmapped node" "cluster.coverage" c

let test_corrupt_cluster_cycle () =
  let result = map_kernel "fir-paper" in
  let c = result.Fpfa_core.Flow.clustering in
  let c =
    Cluster.make c.Cluster.graph c.Cluster.clusters
      ({ Cluster.src = 0; dst = 1; weight = 1 }
      :: { Cluster.src = 1; dst = 0; weight = 1 }
      :: c.Cluster.edges)
  in
  cluster_flags "two-cluster cycle" "cluster.cycle" c

let test_corrupt_sched_unplaced () =
  let result = map_kernel "fir-paper" in
  let s = result.Fpfa_core.Flow.schedule in
  s.Sched.level_of.(0) <- -1;
  ignore (sched_flags "negative level" "sched.unplaced" s)

let test_corrupt_sched_dependence_and_capacity () =
  let result = map_kernel "fir-paper" in
  let s = result.Fpfa_core.Flow.schedule in
  (* Flatten the whole schedule into level 0: every weight-1 edge now
     violates its dependence and level 0 exceeds the 5-ALU capacity. *)
  let all = Array.to_list (Array.mapi (fun cid _ -> cid) s.Sched.level_of) in
  Array.iteri (fun cid _ -> s.Sched.level_of.(cid) <- 0) s.Sched.level_of;
  Array.iteri (fun lvl _ -> s.Sched.levels.(lvl) <- []) s.Sched.levels;
  s.Sched.levels.(0) <- all;
  let diags = sched_flags "flattened schedule" "sched.dependence" s in
  flags "flattened schedule" "sched.capacity" diags

let test_corrupt_sched_asap () =
  let result = map_kernel "fir-paper" in
  let s = result.Fpfa_core.Flow.schedule in
  let cid =
    let found = ref None in
    Array.iteri
      (fun cid a -> if !found = None && a > 0 then found := Some cid)
      s.Sched.asap;
    Option.get !found
  in
  let old = s.Sched.level_of.(cid) in
  s.Sched.level_of.(cid) <- 0;
  s.Sched.levels.(old) <- List.filter (fun c -> c <> cid) s.Sched.levels.(old);
  s.Sched.levels.(0) <- cid :: s.Sched.levels.(0);
  ignore (sched_flags "cluster before its ASAP level" "sched.asap" s)

let cycle_with ~pred job =
  let found = ref None in
  Array.iteri
    (fun i cyc -> if !found = None && pred cyc then found := Some i)
    job.Job.cycles;
  Option.get !found

let test_corrupt_alloc_pp_conflict () =
  let job = (map_kernel "fir-paper").Fpfa_core.Flow.job in
  let i = cycle_with job ~pred:(fun c -> c.Job.alu <> []) in
  let cyc = job.Job.cycles.(i) in
  job.Job.cycles.(i) <-
    { cyc with Job.alu = List.hd cyc.Job.alu :: cyc.Job.alu };
  ignore (alloc_flags "doubled ALU bundle" "alloc.pp-conflict" job)

let test_corrupt_alloc_bus_capacity () =
  let job = (map_kernel "fir-paper").Fpfa_core.Flow.job in
  let i = cycle_with job ~pred:(fun c -> c.Job.moves <> []) in
  let cyc = job.Job.cycles.(i) in
  let mv = List.hd cyc.Job.moves in
  let flood =
    List.init (job.Job.tile.Fpfa_arch.Arch.buses + 1) (fun _ -> mv)
  in
  job.Job.cycles.(i) <- { cyc with Job.moves = flood };
  ignore (alloc_flags "flooded crossbar" "alloc.bus-capacity" job)

let test_corrupt_alloc_reg_bounds () =
  let job = (map_kernel "fir-paper").Fpfa_core.Flow.job in
  let i = cycle_with job ~pred:(fun c -> c.Job.moves <> []) in
  let cyc = job.Job.cycles.(i) in
  let mv = List.hd cyc.Job.moves in
  let bad = { mv with Job.dst = { mv.Job.dst with Job.index = 999 } } in
  job.Job.cycles.(i) <- { cyc with Job.moves = bad :: List.tl cyc.Job.moves };
  ignore (alloc_flags "register index 999" "alloc.reg-bounds" job)

let test_corrupt_alloc_mem_bounds () =
  let job = (map_kernel "fir-paper").Fpfa_core.Flow.job in
  let i = cycle_with job ~pred:(fun c -> c.Job.moves <> []) in
  let cyc = job.Job.cycles.(i) in
  let mv = List.hd cyc.Job.moves in
  let bad = { mv with Job.src = { mv.Job.src with Job.addr = 99_999 } } in
  job.Job.cycles.(i) <- { cyc with Job.moves = bad :: List.tl cyc.Job.moves };
  ignore (alloc_flags "memory address 99999" "alloc.mem-bounds" job)

let test_corrupt_alloc_conflicts () =
  let job = (map_kernel "fir-paper").Fpfa_core.Flow.job in
  let i = cycle_with job ~pred:(fun c -> c.Job.moves <> []) in
  let cyc = job.Job.cycles.(i) in
  let mv = List.hd cyc.Job.moves in
  job.Job.cycles.(i) <- { cyc with Job.moves = [ mv; mv ] };
  let diags = alloc_flags "duplicated move (bank port)" "alloc.write-conflict" job in
  flags "duplicated move (memory port)" "alloc.read-conflict" diags

(* {2 The verify-each-pass hook} *)

let test_verification_blames_rule () =
  let g = Cdfg.Builder.build_program "void main() { x = a + b; }" in
  let binop =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with G.Binop _ -> Some n.G.id | _ -> acc)
    |> Option.get
  in
  let token =
    G.fold g ~init:None ~f:(fun acc n ->
        match n.G.kind with G.Ss_in _ -> Some n.G.id | _ -> acc)
    |> Option.get
  in
  (* set_inputs preserves arity and reference validity but not port
     typing: this "rewrite" feeds a statespace token into the adder. *)
  let sabotage =
    T.Pass.local "sabotage" (fun g id ->
        if id = binop && G.mem g binop then begin
          let other = List.nth (G.inputs g binop) 1 in
          G.set_inputs g binop [ token; other ];
          true
        end
        else false)
  in
  match
    T.Pass.run_worklist ~verify:(Verify.pass_hook ()) [ sabotage ] g
  with
  | (_ : T.Pass.worklist_report) ->
    Alcotest.fail "sabotage rule escaped verification"
  | exception T.Pass.Verification_failed { rule; error } ->
    Alcotest.(check string) "blamed rule" "sabotage" rule;
    (match error with
    | D.Failed diags -> flags "hook payload" "cdfg.port-type" diags
    | e -> raise e)

let test_verify_each_clean_flow () =
  let config =
    { Fpfa_core.Flow.default_config with Fpfa_core.Flow.verify_each = true }
  in
  let result = Fpfa_core.Flow.map_source ~config (kernel "fir-paper") in
  Alcotest.(check bool) "flow verifies end to end" true
    (Fpfa_core.Flow.verify
       ~memory_init:(Fpfa_kernels.Kernels.find "fir-paper").Fpfa_kernels.Kernels.inputs
       result)

(* {2 The audit}

   (kernel, overflow warnings, sum of their node ids): the audit reports
   each datapath overflow of the corpus once, as bits.widening-overflow,
   on these nodes. *)
let corpus_overflows =
  [
    ("fir-paper", 9, 253); ("fir-16", 31, 2828); ("fir-dl-8", 15, 1064);
    ("dot-8", 15, 708); ("vscale-8", 16, 447); ("saxpy-8", 16, 534);
    ("iir-6", 29, 1831); ("matmul-3", 45, 5337); ("fft-bfly-4", 12, 384);
    ("dct4", 14, 414); ("corr-4-8", 60, 10016); ("mavg-4-6", 22, 2154);
    ("clip-6", 0, 0); ("maxabs-8", 24, 980); ("poly-6", 12, 342);
    ("cmul-4", 24, 1836); ("manhattan-8", 31, 2247); ("clipmm-6", 0, 0);
    ("cumsum-8", 7, 168); ("iir1-8", 21, 1011); ("mavg-acc-4-8", 27, 1803);
    ("crc8-4", 0, 0); ("pack565-4", 12, 1142);
  ]

let test_corpus_overflow_once () =
  let config = Fpfa_core.Flow.default_config in
  let seen =
    List.map
      (fun (k : Fpfa_kernels.Kernels.t) ->
        let name = k.Fpfa_kernels.Kernels.name in
        let diags, _ = Fpfa_core.Flow.audit ~config (map_kernel name) in
        Alcotest.(check bool)
          (name ^ ": no second overflow rule")
          false
          (D.has_rule "lint.range-overflow" diags);
        let nodes =
          List.filter_map
            (fun d ->
              if String.equal d.D.rule "bits.widening-overflow" then d.D.node
              else None)
            diags
        in
        (name, List.length nodes, List.fold_left ( + ) 0 nodes))
      Fpfa_kernels.Kernels.all
  in
  Alcotest.(check (list (triple string int int)))
    "overflow warnings per kernel" corpus_overflows seen;
  Alcotest.(check int) "442 in all" 442
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 seen)

(* One Absdom fixpoint serves the whole audit: the bit lints, and the
   address facts the statespace replay and the lints share. The raw and
   the minimised graph's structure are each checked once. *)
let test_audit_one_fixpoint () =
  let result = map_kernel "fir-16" in
  let module Obs = Fpfa_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let _, facts =
    Fun.protect ~finally:Obs.disable (fun () ->
        Fpfa_core.Flow.audit ~config:Fpfa_core.Flow.default_config result)
  in
  let spans name =
    List.length
      (List.filter
         (fun (sp : Obs.finished_span) -> sp.Obs.sname = name)
         (Obs.spans ()))
  in
  let absdom = spans "absdom" and addr = spans "addr" in
  let structure = spans "verify-structure" in
  Obs.reset ();
  Alcotest.(check int) "one Absdom fixpoint" 1 absdom;
  Alcotest.(check int) "one address sweep" 1 addr;
  Alcotest.(check int) "each graph's structure checked once" 2 structure;
  Alcotest.(check bool) "facts returned" true (facts <> None)

(* {2 Properties} *)

let worklist_rules_stay_clean =
  QCheck.Test.make ~name:"worklist rules keep random DAGs verifier-clean"
    ~count:120
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:60 () in
      (* [minimize] ends with [Graph.validate]: the full structure rules *)
      ignore
        (T.Simplify.minimize ~verify:(Verify.pass_hook ()) g);
      true)

let suite =
  [
    Alcotest.test_case "clean corpus has no diagnostics" `Quick
      test_clean_corpus;
    Alcotest.test_case "index_errors exported and empty" `Quick
      test_index_errors_exported;
    Alcotest.test_case "corrupt: port type" `Quick test_corrupt_port_type;
    Alcotest.test_case "corrupt: token region" `Quick
      test_corrupt_token_region;
    Alcotest.test_case "corrupt: undeclared region" `Quick
      test_corrupt_region_undeclared;
    Alcotest.test_case "corrupt: duplicate Ss_in" `Quick
      test_corrupt_duplicate_ss;
    Alcotest.test_case "corrupt: non-value output" `Quick
      test_corrupt_output_invalid;
    Alcotest.test_case "corrupt: order cycle" `Quick test_corrupt_cycle;
    Alcotest.test_case "corrupt: dynamic offset" `Quick
      test_corrupt_offset_dynamic;
    Alcotest.test_case "corrupt: negative offset" `Quick
      test_corrupt_offset_negative;
    Alcotest.test_case "corrupt: unstored output" `Quick
      test_corrupt_output_not_stored;
    Alcotest.test_case "lint: dead node" `Quick test_lint_dead_node;
    Alcotest.test_case "lint: dead store" `Quick test_lint_dead_store;
    Alcotest.test_case "lint: store kept by fetch" `Quick
      test_lint_dead_store_read_between;
    Alcotest.test_case "lint: fetch uninitialised" `Quick
      test_lint_fetch_uninit;
    Alcotest.test_case "lint: range overflow" `Quick test_lint_range_overflow;
    Alcotest.test_case "corpus overflow once" `Quick test_corpus_overflow_once;
    Alcotest.test_case "audit one fixpoint" `Quick test_audit_one_fixpoint;
    Alcotest.test_case "lint: band fetch uninitialised" `Quick
      test_lint_band_fetch_uninit;
    Alcotest.test_case "lint: band store not dead" `Quick
      test_lint_band_store_not_dead;
    Alcotest.test_case "lint: unbounded store suppresses uninit" `Quick
      test_lint_suppressed;
    Alcotest.test_case "lint: unbounded fetch suppresses dead-store" `Quick
      test_lint_suppressed_dead_store;
    Alcotest.test_case "lint: suppression totals accesses" `Quick
      test_lint_suppressed_counts;
    Alcotest.test_case "lint: out-of-region offset" `Quick
      test_lint_out_of_region;
    Alcotest.test_case "lint: undecidable overlap reported" `Quick
      test_lint_overlap_unknown;
    Alcotest.test_case "dataflow: reaching stores" `Quick test_reaching_stores;
    Alcotest.test_case "dataflow: liveness" `Quick test_liveness;
    Alcotest.test_case "corrupt: cluster datapath" `Quick
      test_corrupt_cluster_datapath;
    Alcotest.test_case "corrupt: cluster empty" `Quick
      test_corrupt_cluster_empty;
    Alcotest.test_case "corrupt: cluster coverage" `Quick
      test_corrupt_cluster_coverage;
    Alcotest.test_case "corrupt: cluster cycle" `Quick
      test_corrupt_cluster_cycle;
    Alcotest.test_case "corrupt: sched unplaced" `Quick
      test_corrupt_sched_unplaced;
    Alcotest.test_case "corrupt: sched dependence+capacity" `Quick
      test_corrupt_sched_dependence_and_capacity;
    Alcotest.test_case "corrupt: sched asap" `Quick test_corrupt_sched_asap;
    Alcotest.test_case "corrupt: alloc pp conflict" `Quick
      test_corrupt_alloc_pp_conflict;
    Alcotest.test_case "corrupt: alloc bus capacity" `Quick
      test_corrupt_alloc_bus_capacity;
    Alcotest.test_case "corrupt: alloc reg bounds" `Quick
      test_corrupt_alloc_reg_bounds;
    Alcotest.test_case "corrupt: alloc mem bounds" `Quick
      test_corrupt_alloc_mem_bounds;
    Alcotest.test_case "corrupt: alloc port conflicts" `Quick
      test_corrupt_alloc_conflicts;
    Alcotest.test_case "verify-each blames the firing rule" `Quick
      test_verification_blames_rule;
    Alcotest.test_case "verify-each flow stays correct" `Quick
      test_verify_each_clean_flow;
    QCheck_alcotest.to_alcotest worklist_rules_stay_clean;
  ]
