(* The metrics the benchmark reports. BENCHMARK.json at the repository
   root lists the same names and units (the smoke test in this directory
   checks that they agree) and adds the regression bound of each
   end-to-end metric. *)

type better = Lower | Higher

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("pass_ms", "ms", Lower);
    ("latency_ms_p50", "ms", Lower);
    ("latency_ms_p90", "ms", Lower);
    ("ops_per_s", "1/s", Higher);
    ("peak_rss_mb", "MiB", Lower);
    ("tile_cycles", "cycles", Lower);
    ("stall_cycles", "cycles", Lower);
    ("alu_util", "ratio", Higher);
    ("energy", "units", Lower);
  ]

(* Layers timed by the trace run: the benchmark's own spans around the
   public calls, then the library's stage spans they contain. *)
let bench_layers =
  [ "frontend"; "minimise"; "cluster"; "schedule"; "allocate"; "simulate"; "rewind" ]

let library_layers =
  [
    "cfront.parse"; "cfront.inline"; "cfront.unroll"; "cdfg.build";
    "cdfg.validate"; "transform.simplify"; "transform.bitopt";
    "analysis.disambig"; "mapping.cluster"; "mapping.schedule";
    "mapping.allocate"; "sim.cycle";
  ]

(* Library layers that run on every workload, serve included; only their
   absolute times are reported to the driver, so that no reported time is
   a constant zero on some workload. *)
let universal_layers = [ "mapping.schedule"; "mapping.allocate"; "sim.cycle" ]

let rules =
  [
    "const-fold"; "algebraic"; "cse"; "store-to-fetch"; "dead-store";
    "order-canon"; "dce"; "reassociate";
  ]

let outcomes = [ "request_hit"; "mapping_hit"; "rewind"; "patched"; "cold" ]

let per_layer =
  List.concat_map
    (fun l -> [ (l ^ ".pct", "%"); (l ^ ".minor_mw", "Mword") ])
    (bench_layers @ library_layers)
  @ List.map (fun l -> (l ^ ".ms", "ms")) universal_layers
  @ [
      ("cdfg.raw_nodes", "count"); ("cdfg.min_nodes", "count");
      ("cdfg.kept_ratio", "ratio"); ("pass.steps", "count");
      ("pass.rewrites", "count"); ("pass.enqueues", "count");
      ("pass.useful_ratio", "ratio");
    ]
  @ List.map (fun r -> ("pass.fire." ^ r, "count")) rules
  @ [
      ("bitopt.rewrites", "count"); ("disambig.removed", "count");
      ("cluster.clusters", "count"); ("sched.levels_inserted", "count");
      ("sched.displacements", "count"); ("alloc.moves", "count");
      ("alloc.inserted_cycles", "count"); ("alloc.level_retries", "count");
      ("sim.cycles", "count");
    ]
  @ List.map (fun o -> ("serve." ^ o ^ ".share", "ratio")) outcomes
  @ [
      ("serve.patched_ratio", "ratio"); ("serve.dirty_nodes_per_patch", "count");
      ("serve.l1.evictions", "count"); ("serve.l2.evictions", "count");
      ("gc.minor_mw", "Mword"); ("gc.major_mw", "Mword");
      ("trace.overhead_pct", "%");
    ]
