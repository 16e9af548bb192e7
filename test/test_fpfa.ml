(* Test runner: one Alcotest binary over every module's suite. *)

let () =
  Alcotest.run "fpfa"
    [
      ("util", Test_util.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("sema", Test_sema.suite);
      ("inline", Test_inline.suite);
      ("interp", Test_interp.suite);
      ("unroll", Test_unroll.suite);
      ("op", Test_op.suite);
      ("graph", Test_graph.suite);
      ("graph-model", Test_graph_model.suite);
      ("builder", Test_builder.suite);
      ("eval", Test_eval.suite);
      ("transform", Test_transform.suite);
      ("range", Test_range.suite);
      ("bits", Test_bits.suite);
      ("arch", Test_arch.suite);
      ("cluster", Test_cluster.suite);
      ("sched", Test_sched.suite);
      ("alloc", Test_alloc.suite);
      ("sim", Test_sim.suite);
      ("metrics", Test_metrics.suite);
      ("misc", Test_misc.suite);
      ("flow", Test_flow.suite);
      ("serialize", Test_serialize.suite);
      ("pipeline", Test_pipeline.suite);
      ("loop", Test_loop.suite);
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("depend", Test_depend.suite);
      ("disambig", Test_disambig.suite);
      ("exec", Test_exec.suite);
      ("json", Test_json.suite);
      ("serve", Test_serve.suite);
      ("incr", Test_incr.suite);
      ("golden", Test_mapping_golden.suite);
    ]
