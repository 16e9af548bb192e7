(* Benchmark harness: regenerates every evaluation artefact of the paper
   (see DESIGN.md section 4 for the experiment index).

     E1  fig3_fir_cdfg        paper Fig. 3  (FIR after unroll + simplify)
     E2  fig4_scheduling      paper Fig. 4  (level insertion on 5 ALUs)
     E3  fig5_allocation      paper Fig. 5  (heuristic allocation, window)
     E4  tile_resource_usage  paper Fig. 1  (hardware limits respected)
     E5  phase_complexity     Section VI    (linear-time phases, Bechamel;
                                              writes BENCH_complexity.json,
                                              gated in CI: us/cluster may
                                              grow at most 4x from 300 to
                                              3000 ops, the simplifier's
                                              us/raw node at most 4x from
                                              matmul n=4 to n=10)
     E6  speedup               Section VII  ("maximum parallelism")
     E7  locality_ablation     Section VII  ("locality of reference")
     E8  unroll_sweep          Section V    (unrolling as the enabler)
     E9  loop_mapping          Section VII   (future work: loops mapped by
                                              configuration reuse)
     E10 branch_cost           Section VII   (future work: branches via
                                              if-conversion; speculation cost)
     E11 interleaving          Section II    (memory-port bottleneck fix:
                                              two-way array interleaving)
     E12 priority_ablation     Section VI-B  (ready-priority choice in the
                                              level scheduler)
     E14 obs_overhead           (infrastructure) cost of the lib/obs
                                              null-sink fast path (target:
                                              <2% with obs disabled)
     E15 verify_overhead        (infrastructure) cost of the per-firing
                                              structural verifier
                                              (--verify-each-pass) on a
                                              seed-11 random-DAG sweep
                                              (target: <15%)
     E16 par_speedup            (infrastructure) Domain-pool scaling of
                                              corpus compiles and design-
                                              space sweeps at -j 1/2/4/8
                                              (target: >=2.5x at 4 domains
                                              on a >=4-core host, results
                                              identical at every width)
     E17 alias_prune            (infrastructure) order-edge disambiguation
                                              via the statespace address
                                              analysis: false anti-
                                              dependences removed on the
                                              delay-line FIR family,
                                              schedule never deepens,
                                              analysis cost <15% of flow

     E19 serve                  (infrastructure) compile-as-a-service:
                                              cold vs warm latency through
                                              the daemon's content-addressed
                                              cache on a repeated-corpus
                                              workload (target: warm >=100x
                                              cold, byte-identical results
                                              cache-on vs cache-off), plus
                                              the E16/E18 multi-core
                                              re-check through the batch
                                              admission path

     E20 depend                 (infrastructure) loop-carried dependence
                                              analysis / II lower bounds:
                                              every corpus loop bounded,
                                              zero validator refutations,
                                              the recurrence kernels at
                                              their exact RecMII, analysis
                                              cost <15% of compile

     E22 bitopt                 (infrastructure) certified bit-level
                                              optimisation: known-bits x
                                              range facts demote mul/div/mod
                                              by powers of two and drop
                                              redundant masks on >=3 corpus
                                              kernels, every claim re-proved
                                              from recomputed facts, Eval
                                              results identical pass on/off,
                                              analysis+pass cost <15% of
                                              compile

   Absolute numbers are ours (the substrate is a simulator, not the
   CHAMELEON testbed); the shapes are what EXPERIMENTS.md compares. *)

module Arch = Fpfa_arch.Arch
module Flow = Fpfa_core.Flow
module Metrics = Mapping.Metrics
module Kernels = Fpfa_kernels.Kernels

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let map_kernel ?(variant = Baseline.paper) (k : Kernels.t) =
  Baseline.map_source variant k.Kernels.source

(* ------------------------------------------------------------------ *)
(* E1 - Fig. 3: the FIR CDFG before and after full simplification.     *)
(* ------------------------------------------------------------------ *)

let fig3_fir_cdfg () =
  section "E1 fig3_fir_cdfg (paper Fig. 3)";
  let result = map_kernel Kernels.fir_paper in
  let b = result.Flow.simplify_report.Transform.Simplify.before in
  let a = result.Flow.simplify_report.Transform.Simplify.after in
  let row label (s : Cdfg.Graph.stats) =
    [
      label;
      string_of_int s.Cdfg.Graph.total;
      string_of_int s.Cdfg.Graph.fetches;
      string_of_int s.Cdfg.Graph.stores;
      string_of_int s.Cdfg.Graph.multiplies;
      string_of_int s.Cdfg.Graph.adds;
      string_of_int s.Cdfg.Graph.muxes;
      string_of_int s.Cdfg.Graph.critical_path;
    ]
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "graph"; "nodes"; "FE"; "ST"; "mul"; "add"; "mux"; "cp" ]
    [ row "generated" b; row "simplified" a ];
  Printf.printf
    "paper shape: all loop control folds away; one FE per a[i]/c[i], one\n\
     multiply per tap, a balanced adder tree, and exactly the stores of\n\
     sum and i remain.\n";
  assert (a.Cdfg.Graph.fetches = 10);
  assert (a.Cdfg.Graph.stores = 2);
  assert (a.Cdfg.Graph.multiplies = 5);
  assert (a.Cdfg.Graph.adds = 4);
  assert (a.Cdfg.Graph.muxes = 0);
  Printf.printf "shape asserts: PASS\n"

(* ------------------------------------------------------------------ *)
(* E2 - Fig. 4: scheduling the paper's 11-cluster example.             *)
(* ------------------------------------------------------------------ *)

let fig4_scheduling () =
  section "E2 fig4_scheduling (paper Fig. 4)";
  let clustering = Fpfa_kernels.Paper_examples.fig4_clustering () in
  let before = Mapping.Sched.run ~alu_count:100 clustering in
  let after = Mapping.Sched.run ~alu_count:5 clustering in
  Printf.printf "(a) before scheduling (unbounded ALUs):\n";
  Format.printf "%a@." Mapping.Sched.pp before;
  Printf.printf "(b) after scheduling on 5 ALUs:\n";
  Format.printf "%a@." Mapping.Sched.pp after;
  Printf.printf "levels: %d -> %d (one level inserted, Clu6 displaced)\n"
    (Mapping.Sched.level_count before)
    (Mapping.Sched.level_count after);
  assert (Mapping.Sched.level_count before = 4);
  assert (Mapping.Sched.level_count after = 5);
  assert (after.Mapping.Sched.level_of.(6) = 1);
  Printf.printf "Fig. 4 asserts: PASS\n"

(* ------------------------------------------------------------------ *)
(* E3 - Fig. 5: the heuristic allocation and its move window.          *)
(* ------------------------------------------------------------------ *)

let fig5_allocation () =
  section "E3 fig5_allocation (paper Fig. 5)";
  let result = map_kernel Kernels.fir_paper in
  let job = result.Flow.job in
  Format.printf "%a@." Mapping.Job.pp job;
  (* Distribution of "steps before" actually used by the moves. *)
  let exec_of_cluster = Hashtbl.create 16 in
  Array.iteri
    (fun cycle (c : Mapping.Job.cycle) ->
      List.iter
        (fun (w : Mapping.Job.alu_work) ->
          Hashtbl.replace exec_of_cluster w.Mapping.Job.wcluster cycle)
        c.Mapping.Job.alu)
    job.Mapping.Job.cycles;
  let hist = Hashtbl.create 8 in
  Array.iteri
    (fun cycle (c : Mapping.Job.cycle) ->
      List.iter
        (fun (m : Mapping.Job.move) ->
          let exec = Hashtbl.find exec_of_cluster m.Mapping.Job.for_cluster in
          let steps = exec - cycle in
          Hashtbl.replace hist steps
            (1 + match Hashtbl.find_opt hist steps with Some n -> n | None -> 0))
        c.Mapping.Job.moves)
    job.Mapping.Job.cycles;
  let rows =
    Hashtbl.fold (fun steps count acc -> (steps, count) :: acc) hist []
    |> List.sort compare
    |> List.map (fun (steps, count) ->
           [ string_of_int steps; string_of_int count ])
  in
  Printf.printf "moves by distance before the execute cycle (paper: 4,3,2,1):\n";
  Fpfa_util.Tablefmt.print ~header:[ "steps before"; "moves" ] rows;
  Printf.printf "inserted (non-execute) cycles: %d of %d\n"
    result.Flow.metrics.Metrics.inserted_cycles
    result.Flow.metrics.Metrics.cycles

(* ------------------------------------------------------------------ *)
(* E4 - Fig. 1/Section II: hardware limits hold on the whole corpus.   *)
(* ------------------------------------------------------------------ *)

let tile_resource_usage () =
  section "E4 tile_resource_usage (paper Fig. 1 constraints)";
  let tile = Arch.paper_tile in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        let result = map_kernel k in
        let _, trace =
          Fpfa_sim.Sim.run ~memory_init:k.Kernels.inputs result.Flow.job
        in
        let m = result.Flow.metrics in
        [
          k.Kernels.name;
          string_of_int trace.Fpfa_sim.Sim.cycles_run;
          Printf.sprintf "%d/%d" trace.Fpfa_sim.Sim.max_bus_per_cycle
            tile.Arch.buses;
          string_of_int m.Metrics.mem_reads;
          string_of_int m.Metrics.mem_writes;
          (if Fpfa_sim.Sim.conforms ~memory_init:k.Kernels.inputs result.Flow.job
           then "PASS"
           else "FAIL");
        ])
      Kernels.all
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "kernel"; "cycles"; "bus max/cap"; "reads"; "writes"; "conform" ]
    rows;
  Printf.printf
    "the simulator re-checks every port/lane/bank limit dynamically; a\n\
     violation would abort the run.\n"

(* ------------------------------------------------------------------ *)
(* E5 - Section VI: the phases are linear in the number of clusters.   *)
(* ------------------------------------------------------------------ *)

(* The CI gate: per phase, us/cluster at the largest size may be at most
   this multiple of its value at [gate_base] ops. A linear phase keeps the
   ratio near 1 (cache effects drift it upwards); a quadratic one grows
   it roughly tenfold from 300 to 3000 ops. *)
let complexity_growth_limit = 4.0

(* The simplifier's rows: [Simplify.minimize] on a fresh copy of a
   kernel's raw graph, in us per raw node. Matmul n = 4 to 10 spans 1.3k
   to 18k raw nodes and is gated like the mapping phases; the fir and corr
   rows are printed only. *)
let simplify_gate = ("matmul-4", "matmul-10")

let simplify_kernels =
  List.map (fun n -> Kernels.matmul ~n) [ 4; 6; 8; 10 ]
  @ List.map (fun taps -> Kernels.fir ~taps) [ 64; 128; 256; 512 ]
  @ List.map (fun n -> Kernels.correlation ~lags:8 ~n) [ 16; 32; 64 ]

(* (kernel, raw nodes, minimised nodes, median us per run) *)
let simplify_rows () =
  List.map
    (fun (k : Kernels.t) ->
      let raw =
        Flow.Staged.raw_graph
          (Flow.Staged.of_source ~config:Flow.default_config k.Kernels.source)
      in
      (* at least three runs and half a second; the copy is not timed *)
      let rec runs acc total min_nodes =
        if List.length acc >= 3 && total >= 0.5 then (acc, min_nodes)
        else begin
          let g = Cdfg.Graph.copy raw in
          let t0 = Unix.gettimeofday () in
          ignore (Transform.Simplify.minimize ~validate:false g);
          let dt = Unix.gettimeofday () -. t0 in
          runs (dt :: acc) (total +. dt) (Cdfg.Graph.node_count g)
        end
      in
      let times, min_nodes = runs [] 0.0 0 in
      let times = Array.of_list (List.sort compare times) in
      ( k.Kernels.name,
        Cdfg.Graph.node_count raw,
        min_nodes,
        times.(Array.length times / 2) *. 1e6 ))
    simplify_kernels

let phase_complexity () =
  section "E5 phase_complexity (Section VI linearity, Bechamel)";
  let simplify = simplify_rows () in
  let sizes = [ 100; 300; 1000; 3000 ] in
  let gate_base = 300 and gate_top = 3000 in
  (* timing experiment: enlarge the memories so capacity artefacts (scratch
     space for thousands of intermediate values) do not interfere *)
  let tile = { Arch.paper_tile with Arch.memory_size = 16384 } in
  let prepared =
    List.map
      (fun ops ->
        let g = Fpfa_kernels.Random_graph.generate ~seed:11 ~ops () in
        let clustering = Mapping.Cluster.run g in
        let sched = Mapping.Sched.run ~alu_count:5 clustering in
        (ops, g, clustering, sched))
      sizes
  in
  let open Bechamel in
  let bench name f =
    let test = Test.make ~name (Staged.stage f) in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
    let instance = Toolkit.Instance.monotonic_clock in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let analyzed = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun _ est acc ->
        match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> acc)
      analyzed 0.0
  in
  let phases = [ "cluster"; "validate"; "schedule"; "allocate" ] in
  (* (phase, ops, clusters, us/run) *)
  let measured =
    List.concat_map
      (fun (ops, g, clustering, sched) ->
        let clusters = Array.length clustering.Mapping.Cluster.clusters in
        let measure phase f =
          (phase, ops, clusters, bench (Printf.sprintf "%s/%d" phase ops) f /. 1000.0)
        in
        [
          measure "cluster" (fun () -> ignore (Mapping.Cluster.run g));
          measure "validate" (fun () ->
              Mapping.Cluster.validate clustering Arch.paper_alu;
              Mapping.Sched.validate sched ~alu_count:5);
          measure "schedule" (fun () ->
              ignore (Mapping.Sched.run ~alu_count:5 clustering));
          measure "allocate" (fun () -> ignore (Mapping.Alloc.run ~tile sched));
        ])
      prepared
  in
  let per_cluster (_, _, clusters, us) = us /. float_of_int clusters in
  let at phase ops =
    List.find (fun (p, o, _, _) -> String.equal p phase && o = ops) measured
  in
  let growth =
    List.map
      (fun phase ->
        (phase, per_cluster (at phase gate_top) /. per_cluster (at phase gate_base)))
      phases
  in
  let per_node (_, raw, _, us) = us /. float_of_int raw in
  let simplify_at name =
    List.find (fun (k, _, _, _) -> String.equal k name) simplify
  in
  let simplify_growth =
    per_node (simplify_at (snd simplify_gate))
    /. per_node (simplify_at (fst simplify_gate))
  in
  let simplify_pass = simplify_growth <= complexity_growth_limit in
  let pass =
    simplify_pass
    && List.for_all (fun (_, r) -> r <= complexity_growth_limit) growth
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "phase/ops"; "clusters"; "us/run"; "us/cluster" ]
    (List.concat_map
       (fun phase ->
         List.map
           (fun ops ->
             let ((_, _, clusters, us) as m) = at phase ops in
             [
               Printf.sprintf "%s/%d" phase ops;
               string_of_int clusters;
               Printf.sprintf "%.0f" us;
               Printf.sprintf "%.3f" (per_cluster m);
             ])
           sizes)
       phases);
  List.iter
    (fun (phase, r) ->
      Printf.printf "%-9s us/cluster %d -> %d ops: %.2fx (limit %.0fx)\n" phase
        gate_base gate_top r complexity_growth_limit)
    growth;
  Printf.printf
    "linearity shows as a roughly constant us/cluster column per phase.\n\n";
  Fpfa_util.Tablefmt.print
    ~header:[ "simplify"; "raw nodes"; "min nodes"; "us/run"; "us/node" ]
    (List.map
       (fun ((k, raw, min, us) as r) ->
         [
           k;
           string_of_int raw;
           string_of_int min;
           Printf.sprintf "%.0f" us;
           Printf.sprintf "%.2f" (per_node r);
         ])
       simplify);
  Printf.printf "simplify  us/node %s -> %s: %.2fx (limit %.0fx)\n"
    (fst simplify_gate) (snd simplify_gate) simplify_growth
    complexity_growth_limit;
  let module Json = Fpfa_util.Json in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "E5 phase_complexity");
        ("graph_seed", Json.Int 11);
        ("alu_count", Json.Int 5);
        ( "rows",
          Json.List
            (List.map
               (fun ((phase, ops, clusters, us) as m) ->
                 Json.Obj
                   [
                     ("phase", Json.Str phase);
                     ("ops", Json.Int ops);
                     ("clusters", Json.Int clusters);
                     ("us_per_run", Json.Float us);
                     ("us_per_cluster", Json.Float (per_cluster m));
                   ])
               measured) );
        ("gate_base_ops", Json.Int gate_base);
        ("gate_top_ops", Json.Int gate_top);
        ("growth_limit", Json.Float complexity_growth_limit);
        ("growth", Json.Obj (List.map (fun (p, r) -> (p, Json.Float r)) growth));
        ( "simplify",
          Json.Obj
            [
              ( "rows",
                Json.List
                  (List.map
                     (fun ((k, raw, min, us) as r) ->
                       Json.Obj
                         [
                           ("kernel", Json.Str k);
                           ("raw_nodes", Json.Int raw);
                           ("min_nodes", Json.Int min);
                           ("us_per_run", Json.Float us);
                           ("us_per_node", Json.Float (per_node r));
                         ])
                     simplify) );
              ("gate_base", Json.Str (fst simplify_gate));
              ("gate_top", Json.Str (snd simplify_gate));
              ("growth", Json.Float simplify_growth);
              ("pass", Json.Bool simplify_pass);
            ] );
        ("pass", Json.Bool pass);
      ]
  in
  let oc = open_out "BENCH_complexity.json" in
  output_string oc (Json.to_string json ^ "\n");
  close_out oc;
  Printf.printf "\nwrote BENCH_complexity.json (%s)\n"
    (if pass then "pass" else "FAIL")

(* ------------------------------------------------------------------ *)
(* E6 - Section VII: speed-up over the sequential and unit baselines.  *)
(* ------------------------------------------------------------------ *)

let speedup () =
  section "E6 speedup_vs_sequential (Section VII 'maximum parallelism')";
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        let cycles variant =
          (map_kernel ~variant k).Flow.metrics.Metrics.cycles
        in
        let paper = cycles Baseline.paper in
        let seq = cycles Baseline.sequential in
        let unit = cycles Baseline.unit_ops in
        let sarkar = cycles Baseline.sarkar in
        [
          k.Kernels.name;
          string_of_int seq;
          string_of_int unit;
          string_of_int sarkar;
          string_of_int paper;
          Printf.sprintf "%.2fx" (float_of_int seq /. float_of_int paper);
        ])
      Kernels.all
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "kernel"; "seq(1 ALU)"; "unit-ops"; "sarkar"; "paper"; "speedup" ]
    rows;
  Printf.printf
    "expected shape: the 5-PP flow beats 1 ALU on wide kernels and ties on\n\
     serial chains (poly); data-path clustering beats unit-op clusters.\n"

(* ------------------------------------------------------------------ *)
(* E7 - Section VII: locality of reference vs. energy.                 *)
(* ------------------------------------------------------------------ *)

let locality_ablation () =
  section "E7 locality_ablation (Section VII 'low power by locality')";
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        let m variant = (map_kernel ~variant k).Flow.metrics in
        let local = m Baseline.paper in
        let scattered = m Baseline.no_locality in
        let fwd = m Baseline.with_forwarding in
        [
          k.Kernels.name;
          Printf.sprintf "%.2f" local.Metrics.locality;
          Printf.sprintf "%.2f" scattered.Metrics.locality;
          Printf.sprintf "%.0f" local.Metrics.energy;
          Printf.sprintf "%.0f" scattered.Metrics.energy;
          Printf.sprintf "%.0f" fwd.Metrics.energy;
        ])
      Kernels.all
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "loc(on)"; "loc(off)"; "E(on)"; "E(off)"; "E(fwd ext)" ]
    rows;
  Printf.printf
    "expected shape: locality ON gives a higher local-transfer ratio and\n\
     lower energy; the register-forwarding extension lowers it further.\n"

(* ------------------------------------------------------------------ *)
(* E8 - Section V: loop unrolling as the parallelism enabler.          *)
(* ------------------------------------------------------------------ *)

let unroll_sweep () =
  section "E8 unroll_sweep (Section V, FIR tap count)";
  let rows =
    List.map
      (fun taps ->
        let k = Kernels.fir ~taps in
        let r = map_kernel k in
        let m = r.Flow.metrics in
        let a = r.Flow.simplify_report.Transform.Simplify.after in
        [
          string_of_int taps;
          string_of_int a.Cdfg.Graph.total;
          string_of_int m.Metrics.levels;
          string_of_int m.Metrics.cycles;
          Printf.sprintf "%.2f" m.Metrics.alu_utilisation;
        ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "taps"; "nodes"; "levels"; "cycles"; "util" ]
    rows;
  Printf.printf
    "expected shape: cycles grow sub-linearly in taps until memory ports\n\
     saturate (the tile reads a[] and c[] through single-ported memories).\n"

(* ------------------------------------------------------------------ *)
(* E9 - Section VII future work: loops by configuration reuse.          *)
(* ------------------------------------------------------------------ *)

let loop_mapping () =
  section "E9 loop_mapping (Section VII future work)";
  let cases =
    [
      ("vscale-16", "void main() { for (i = 0; i < 16; i++) { out[i] = 3 * x[i] + 1; } }");
      ("saxpy-16", "void main() { for (i = 0; i < 16; i++) { out[i] = 7 * x[i] + y[i]; } }");
      ("fir-16", "void main() { sum = 0; for (i = 0; i < 16; i++) { sum = sum + a[i] * c[i]; } }");
      ("affine-12", "void main() { for (i = 0; i < 12; i++) { out[i] = x[i] * 2 + i; } }");
      ("strided-8", "void main() { for (i = 0; i < 8; i++) { out[i] = x[2 * i]; } }");
      ("square-12", "void main() { for (i = 0; i < 12; i++) { out[i] = i * i; } }");
      ( "3-loop-dsp",
        "void main() { peak = 0; for (i = 0; i < 8; i++) { peak = max(peak, \
         abs(x[i])); } for (i = 0; i < 8; i++) { scaled[i] = (x[i] << 4) / \
         max(peak, 1); } for (i = 0; i < 6; i++) { out[i] = (scaled[i] + \
         scaled[i + 1] + scaled[i + 2]) / 3; } }" );
    ]
  in
  let rows =
    List.map
      (fun (name, source) ->
        match Fpfa_core.Loop_flow.map_source source with
        | Fpfa_core.Loop_flow.Looped staged -> (
          match Fpfa_core.Loop_flow.compare_costs source with
          | Some c ->
            let trips =
              Fpfa_util.Listx.sum
                (List.map
                   (fun (l : Fpfa_core.Loop_flow.loop_segment) ->
                     l.Fpfa_core.Loop_flow.trips)
                   (Fpfa_core.Loop_flow.loops staged))
            in
            [
              name;
              "looped";
              string_of_int trips;
              Printf.sprintf "%d / %d" c.Fpfa_core.Loop_flow.looped_config_words
                c.Fpfa_core.Loop_flow.unrolled_config_words;
              Printf.sprintf "%d / %d" c.Fpfa_core.Loop_flow.looped_cycles
                c.Fpfa_core.Loop_flow.unrolled_cycles;
              Printf.sprintf "%.1fx"
                (float_of_int c.Fpfa_core.Loop_flow.unrolled_config_words
                /. float_of_int c.Fpfa_core.Loop_flow.looped_config_words);
            ]
          | None -> [ name; "looped"; "-"; "-"; "-"; "-" ])
        | Fpfa_core.Loop_flow.Unrolled (_, reason) ->
          let reason =
            if String.length reason > 34 then String.sub reason 0 34 else reason
          in
          [ name; "fallback: " ^ reason; "-"; "-"; "-"; "-" ])
      cases
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "outcome"; "trips"; "config (loop/unroll)";
        "cycles (loop/unroll)"; "config win" ]
    rows;
  Printf.printf
    "expected shape: linear loops map to a single reusable body\n\
     configuration (configuration size ~O(1) in the trip count, cycle\n\
     count honestly higher without cross-iteration overlap); non-linear\n\
     counter uses fall back.\n"

(* ------------------------------------------------------------------ *)
(* E10 - Section VII future work: branches via if-conversion.           *)
(* ------------------------------------------------------------------ *)

let branch_cost () =
  section "E10 branch_cost (if-conversion vs branch-free)";
  let row (k : Kernels.t) =
    let r = map_kernel k in
    let m = r.Flow.metrics in
    let a = r.Flow.simplify_report.Transform.Simplify.after in
    [
      k.Kernels.name;
      string_of_int a.Cdfg.Graph.muxes;
      string_of_int m.Metrics.alu_ops;
      string_of_int m.Metrics.cycles;
      string_of_int m.Metrics.mem_writes;
    ]
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "kernel"; "muxes"; "ops"; "cycles"; "writes" ]
    [ row (Kernels.clip ~n:6); row (Kernels.clip_minmax ~n:6) ];
  (* predication-depth sweep: nested if/else ladders *)
  let ladder depth =
    let rec body k =
      if k = 0 then Printf.sprintf "out[i] = v + %d;" depth
      else
        Printf.sprintf
          "if (v > %d) { %s } else { out[i] = v - %d; }"
          (10 * k) (body (k - 1)) k
    in
    Printf.sprintf "void main() { for (i = 0; i < 6; i++) { v = x[i]; %s } }"
      (body depth)
  in
  let rows =
    List.map
      (fun depth ->
        let r = Flow.map_source (ladder depth) in
        let m = r.Flow.metrics in
        let a = r.Flow.simplify_report.Transform.Simplify.after in
        [
          string_of_int depth;
          string_of_int a.Cdfg.Graph.muxes;
          string_of_int m.Metrics.alu_ops;
          string_of_int m.Metrics.cycles;
        ])
      [ 1; 2; 3; 4 ]
  in
  Printf.printf "\nnested if/else ladder (6 elements):\n";
  Fpfa_util.Tablefmt.print ~header:[ "depth"; "muxes"; "ops"; "cycles" ] rows;
  Printf.printf
    "if-conversion executes both sides and selects: op count and cycles\n\
     grow with nesting depth (every guarded store also rereads and muxes\n\
     its old value). Branch-free formulations are strictly cheaper when\n\
     they exist (clip vs clipmm).\n"

(* ------------------------------------------------------------------ *)
(* E11 - memory interleaving: fixing the port bottleneck of E6.         *)
(* ------------------------------------------------------------------ *)

let interleaving () =
  section "E11 interleaving (the E6 streaming-bottleneck fix)";
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        let m variant = (map_kernel ~variant k).Flow.metrics in
        let paper = m Baseline.paper in
        let inter = m Baseline.interleaved in
        let seq = m Baseline.sequential in
        [
          k.Kernels.name;
          string_of_int seq.Metrics.cycles;
          string_of_int paper.Metrics.cycles;
          string_of_int inter.Metrics.cycles;
          Printf.sprintf "%.2fx"
            (float_of_int paper.Metrics.cycles
            /. float_of_int inter.Metrics.cycles);
          Printf.sprintf "%.2fx"
            (float_of_int seq.Metrics.cycles
            /. float_of_int inter.Metrics.cycles);
        ])
      Kernels.all
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "seq"; "paper"; "interleaved"; "vs paper"; "vs seq" ]
    rows;
  Printf.printf
    "two-way interleaving doubles the read bandwidth of hot arrays; the\n\
     streaming kernels that lost to 1 ALU in E6 now win, at the price of\n\
     a mild regression where arrays were already port-balanced.\n"

(* ------------------------------------------------------------------ *)
(* E12 - scheduling-priority ablation (the paper plays the critical      *)
(* path first; how much does the choice matter?)                         *)
(* ------------------------------------------------------------------ *)

let priority_ablation () =
  section "E12 priority_ablation (critical-first vs alternatives)";
  let strategies =
    [
      ("mobility", Mapping.Sched.Mobility);
      ("alap", Mapping.Sched.Alap_first);
      ("fifo", Mapping.Sched.Cid_order);
    ]
  in
  let rows =
    List.map
      (fun seed ->
        (* wide graphs (many independent inputs) so level capacity binds
           and the ready-priority actually has choices to make *)
        let g =
          Fpfa_kernels.Random_graph.generate ~seed ~ops:150 ~input_words:100
            ~mul_ratio:0.15 ()
        in
        let clustering = Mapping.Cluster.run g in
        let cells =
          List.map
            (fun (_, p) ->
              let s = Mapping.Sched.run ~alu_count:5 ~priority:p clustering in
              Mapping.Sched.validate s ~alu_count:5;
              string_of_int (Mapping.Sched.level_count s))
            strategies
        in
        let s = Mapping.Sched.run ~alu_count:5 clustering in
        (Printf.sprintf "random-%d" seed
         :: string_of_int (Mapping.Sched.critical_path_levels s)
         :: cells))
      [ 1; 7; 23; 42; 99; 123 ]
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "graph"; "cp bound"; "mobility"; "alap"; "fifo" ]
    rows;
  Printf.printf
    "level counts per ready-priority. The gap to the critical-path bound\n\
     comes from store-version chains, not ALU capacity; when capacity does\n\
     bind (wide graphs) the paper's critical-first choice matches or beats\n\
     the alternatives, and the differences stay small - the heuristic's\n\
     cheapness is justified.\n"

(* The paper's own workload shape for the simplifier: a fully unrolled
   FIR, where the rules do real rewriting work (folding, CSE, forwarding,
   DCE, rebalancing) rather than scanning an already-minimal DAG. Used by
   E18. *)
let fir_raw taps =
  let k = Kernels.fir ~taps in
  let program = Cfront.Parser.parse_program k.Kernels.source in
  let program = Cfront.Inline.program program in
  let f =
    List.find
      (fun (f : Cfront.Ast.func) -> String.equal f.Cfront.Ast.name "main")
      program
  in
  let f = Cfront.Unroll.unroll_func ~max_iterations:4096 f in
  Cdfg.Builder.build_func f

(* ------------------------------------------------------------------ *)
(* E14 - observability overhead: the null-sink fast path must cost      *)
(* <2% of a full map+simulate sweep when the subsystem is disabled.     *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  section "E14 obs_overhead (null-sink fast path cost)";
  let module Obs = Fpfa_obs.Obs in
  let reps = 10 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run_corpus () =
    List.iter
      (fun (k : Kernels.t) ->
        let r = map_kernel k in
        ignore (Fpfa_sim.Sim.run ~memory_init:k.Kernels.inputs r.Flow.job))
      Kernels.all
  in
  (* warm-up, then one enabled sweep to count the events it records *)
  run_corpus ();
  Obs.set_clock Unix.gettimeofday;
  Obs.enable ();
  Obs.reset ();
  run_corpus ();
  let spans_per_sweep = List.length (Obs.spans ()) in
  (* every add/incr of n counts as n updates: a conservative bound *)
  let counter_updates_per_sweep =
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.counters ())
  in
  (* Sub-second sweeps drown in scheduler noise, so time [reps] blocks
     of each mode in alternation and keep the per-mode minimum — the
     standard noise-robust estimator. *)
  let disabled_block () =
    Obs.disable ();
    time (fun () -> run_corpus ())
  in
  let enabled_block () =
    Obs.enable ();
    Obs.reset ();
    time (fun () -> run_corpus ())
  in
  let disabled_s = ref infinity and enabled_s = ref infinity in
  for _ = 1 to reps do
    disabled_s := Float.min !disabled_s (disabled_block ());
    enabled_s := Float.min !enabled_s (enabled_block ())
  done;
  let disabled_s = !disabled_s and enabled_s = !enabled_s in
  Obs.disable ();
  Obs.reset ();
  (* microbenchmark of the disabled operations themselves *)
  let iters = 5_000_000 in
  let c = Obs.counter "bench.e14" in
  let span_ns =
    time (fun () ->
        for _ = 1 to iters do
          Obs.span "e14" (fun () -> ())
        done)
    /. float_of_int iters *. 1e9
  in
  let ctr_ns =
    time (fun () ->
        for _ = 1 to iters do
          Obs.incr c
        done)
    /. float_of_int iters *. 1e9
  in
  let enabled_pct = (enabled_s -. disabled_s) /. disabled_s *. 100.0 in
  (* the disabled fast path costs (events * per-event ns) out of the
     measured disabled sweep time *)
  let est_disabled_pct =
    float_of_int spans_per_sweep *. span_ns
    +. (float_of_int counter_updates_per_sweep *. ctr_ns)
  in
  let est_disabled_pct = est_disabled_pct /. (disabled_s *. 1e9) *. 100.0 in
  Fpfa_util.Tablefmt.print
    ~header:[ "quantity"; "value" ]
    [
      [ "blocks per mode (reps)"; string_of_int reps ];
      [ "disabled sweep (min)"; Printf.sprintf "%.3f s" disabled_s ];
      [ "enabled sweep (min)"; Printf.sprintf "%.3f s" enabled_s ];
      [ "enabled overhead"; Printf.sprintf "%.1f %%" enabled_pct ];
      [ "spans per sweep"; string_of_int spans_per_sweep ];
      [ "counter updates per sweep"; string_of_int counter_updates_per_sweep ];
      [ "disabled span call"; Printf.sprintf "%.1f ns" span_ns ];
      [ "disabled counter update"; Printf.sprintf "%.1f ns" ctr_ns ];
      [ "est. disabled overhead"; Printf.sprintf "%.3f %%" est_disabled_pct ];
    ];
  Printf.printf
    "disabled spans reduce to one branch + closure call and disabled\n\
     counter updates to one branch; their total share of a full\n\
     map+simulate sweep is the 'est. disabled overhead' row (target <2%%).\n";
  let json = Buffer.create 512 in
  Buffer.add_string json "{\n  \"experiment\": \"obs_overhead\",\n";
  Buffer.add_string json (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string json
    (Printf.sprintf "  \"kernels\": %d,\n" (List.length Kernels.all));
  Buffer.add_string json
    (Printf.sprintf
       "  \"disabled_sweep_s\": %.6f,\n  \"enabled_sweep_s\": %.6f,\n"
       disabled_s enabled_s);
  Buffer.add_string json
    (Printf.sprintf "  \"enabled_overhead_pct\": %.2f,\n" enabled_pct);
  Buffer.add_string json
    (Printf.sprintf "  \"spans_per_sweep\": %d,\n" spans_per_sweep);
  Buffer.add_string json
    (Printf.sprintf "  \"counter_updates_per_sweep\": %d,\n"
       counter_updates_per_sweep);
  Buffer.add_string json
    (Printf.sprintf
       "  \"disabled_span_ns\": %.2f,\n  \"disabled_counter_ns\": %.2f,\n"
       span_ns ctr_ns);
  Buffer.add_string json
    (Printf.sprintf "  \"est_disabled_overhead_pct\": %.4f,\n"
       est_disabled_pct);
  Buffer.add_string json
    (Printf.sprintf "  \"target_pct\": 2.0,\n  \"pass\": %b\n}\n"
       (est_disabled_pct < 2.0));
  let oc = open_out "BENCH_obs_overhead.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_obs_overhead.json\n"

(* ------------------------------------------------------------------ *)
(* E15 - verify-each-pass overhead: the per-firing structural verifier  *)
(* (--verify-each-pass) audits the touched neighbourhood after every    *)
(* rule firing; its cost over a random-DAG sweep must stay <15%.        *)
(* ------------------------------------------------------------------ *)

let verify_overhead () =
  section "E15 verify_overhead (--verify-each-pass cost)";
  let module Simplify = Transform.Simplify in
  let module Verify = Fpfa_analysis.Verify in
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Random DAGs, seed 11. Time [reps] alternating blocks per mode and
     keep the per-mode minimum (noise-robust). *)
  let sizes = [ 500; 1_000; 2_000; 5_000; 10_000; 20_000; 50_000 ] in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"verify_overhead\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"seed\": 11,\n  \"reps\": %d,\n  \"sizes\": [\n" reps);
  let worst = ref 0.0 in
  let rows =
    List.map
      (fun ops ->
        let g = Fpfa_kernels.Random_graph.generate ~seed:11 ~ops () in
        let before = Cdfg.Graph.node_count g in
        let plain_s = ref infinity and verified_s = ref infinity in
        let checks = ref 0 in
        for _ = 1 to reps do
          let g1 = Cdfg.Graph.copy g in
          let _, t = time (fun () -> Simplify.minimize ~validate:false g1) in
          plain_s := Float.min !plain_s t;
          let g2 = Cdfg.Graph.copy g in
          let n = ref 0 in
          let hook rule g touched =
            incr n;
            Verify.pass_hook () rule g touched
          in
          let _, t =
            time (fun () ->
                Simplify.minimize ~validate:false ~verify:hook g2)
          in
          verified_s := Float.min !verified_s t;
          checks := !n
        done;
        let plain_s = !plain_s and verified_s = !verified_s in
        let pct = (verified_s -. plain_s) /. plain_s *. 100.0 in
        worst := Float.max !worst pct;
        Buffer.add_string json
          (Printf.sprintf
             "    {\"ops\": %d, \"nodes\": %d, \"plain_s\": %.6f, \
              \"verified_s\": %.6f, \"checks\": %d, \"overhead_pct\": %.2f}%s\n"
             ops before plain_s verified_s !checks pct
             (if ops = List.nth sizes (List.length sizes - 1) then "" else ","));
        [
          string_of_int ops;
          string_of_int before;
          Printf.sprintf "%.4f" plain_s;
          Printf.sprintf "%.4f" verified_s;
          string_of_int !checks;
          Printf.sprintf "%.1f %%" pct;
        ])
      sizes
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "ops"; "nodes"; "plain s"; "verified s"; "checks"; "overhead" ]
    rows;
  Printf.printf
    "'checks' counts verifier invocations (one per rule firing); the\n\
     touched-neighbourhood audit keeps each one O(degree), so the\n\
     worst-case overhead across the sweep (target <15%%) is %.1f%%.\n"
    !worst;
  Buffer.add_string json
    (Printf.sprintf
       "  ],\n  \"worst_overhead_pct\": %.2f,\n  \"target_pct\": 15.0,\n\
       \  \"pass\": %b\n}\n"
       !worst (!worst < 15.0));
  let oc = open_out "BENCH_verify_overhead.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_verify_overhead.json\n"

(* ------------------------------------------------------------------ *)
(* E16 - Domain-pool scaling: corpus compiles and design-space sweeps   *)
(* distributed over 1/2/4/8 domains through Fpfa_exec.Pool.             *)
(* ------------------------------------------------------------------ *)

let par_speedup () =
  section "E16 par_speedup (Domain-pool batch scaling)";
  let module Pool = Fpfa_exec.Pool in
  let module Sweep = Fpfa_core.Sweep in
  let reps = 3 in
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Workload 1: map + simulate the whole kernel corpus. *)
  let corpus jobs =
    Pool.map_ordered ~jobs
      (fun (k : Kernels.t) ->
        let r = map_kernel k in
        let memory, _ =
          Fpfa_sim.Sim.run ~memory_init:k.Kernels.inputs r.Flow.job
        in
        (r.Flow.metrics, memory))
      Kernels.all
  in
  (* Workload 2: the ALU + crossbar design-space sweep on a 16-tap FIR. *)
  let fir = Kernels.fir ~taps:16 in
  let sweep_points =
    Sweep.points Sweep.Alu_count Sweep.default_alus
    @ Sweep.points Sweep.Buses Sweep.default_buses
  in
  let sweep jobs =
    if jobs <= 1 then Sweep.run ~source:fir.Kernels.source sweep_points
    else
      Pool.with_pool ~jobs (fun pool ->
          Sweep.run ~pool ~source:fir.Kernels.source sweep_points)
  in
  (* Alternating min-of-reps per width (the E14/E15 noise-robust
     estimator); jobs=1 runs first and is the determinism reference. *)
  let measure workload jobs =
    let best = ref infinity and last = ref None in
    for _ = 1 to reps do
      let r, t = time (fun () -> workload jobs) in
      best := Float.min !best t;
      last := Some r
    done;
    (!best, Option.get !last)
  in
  let widths = [ 1; 2; 4; 8 ] in
  (* A 1-core host serialises the domains: timing the wider widths there
     measures pool spawn/teardown overhead, not scaling, and the numbers
     only mislead whoever diffs the artifact. So with one core only
     jobs=1 is timed - but every width still {e runs} once, because the
     identity assertion (parallel results = sequential results) is
     meaningful on any host. *)
  let timed jobs = cores > 1 || jobs = 1 in
  let results =
    List.map
      (fun jobs ->
        if timed jobs then begin
          let corpus_s, corpus_r = measure corpus jobs in
          let sweep_s, sweep_r = measure sweep jobs in
          (jobs, Some corpus_s, corpus_r, Some sweep_s, sweep_r)
        end
        else begin
          let corpus_r = corpus jobs in
          let sweep_r = sweep jobs in
          (jobs, None, corpus_r, None, sweep_r)
        end)
      widths
  in
  let _, corpus1_so, corpus1_r, sweep1_so, sweep1_r = List.hd results in
  let corpus1_s = Option.get corpus1_so in
  let sweep1_s = Option.get sweep1_so in
  let all_identical = ref true in
  let speedup_at = Hashtbl.create 4 in
  let rows =
    List.map
      (fun (jobs, corpus_so, corpus_r, sweep_so, sweep_r) ->
        let identical = corpus_r = corpus1_r && sweep_r = sweep1_r in
        if not identical then all_identical := false;
        (match (corpus_so, sweep_so) with
        | Some corpus_s, Some sweep_s ->
          Hashtbl.replace speedup_at jobs
            (Float.min (corpus1_s /. corpus_s) (sweep1_s /. sweep_s))
        | _ -> ());
        let fmt_s = function
          | Some s -> Printf.sprintf "%.3f" s
          | None -> "-"
        in
        let fmt_x base = function
          | Some s -> Printf.sprintf "%.2fx" (base /. s)
          | None -> "-"
        in
        [
          string_of_int jobs;
          fmt_s corpus_so;
          fmt_x corpus1_s corpus_so;
          fmt_s sweep_so;
          fmt_x sweep1_s sweep_so;
          (if identical then "yes" else "NO");
        ])
      results
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "-j"; "corpus s"; "corpus x"; "sweep s"; "sweep x"; "identical" ]
    rows;
  (* The speedup target only makes sense with the cores to back it: a
     1-core container serialises the domains and measures pure pool
     overhead instead. Determinism must hold everywhere. *)
  let assessed = cores >= 4 in
  let speedup4 = try Hashtbl.find speedup_at 4 with Not_found -> 0.0 in
  let pass = !all_identical && ((not assessed) || speedup4 >= 2.5) in
  Printf.printf
    "host has %d core%s; the >=2.5x-at-4-domains target is %s here.\n\
     results are %s across widths (corpus metrics+memories, sweep rows).\n"
    cores
    (if cores = 1 then "" else "s")
    (if assessed then "assessed" else "not assessable (needs >= 4 cores)")
    (if !all_identical then "identical" else "NOT identical");
  if cores = 1 then
    Printf.printf
      "multi-width timing skipped (1 core serialises the pool); widths > 1\n\
       ran once each, untimed, for the identity assertion.\n";
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"par_speedup\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"reps\": %d,\n  \"cores_detected\": %d,\n" reps cores);
  Buffer.add_string json
    (Printf.sprintf "  \"kernels\": %d,\n  \"sweep_points\": %d,\n"
       (List.length Kernels.all)
       (List.length sweep_points));
  Buffer.add_string json "  \"widths\": [\n";
  List.iteri
    (fun i (jobs, corpus_so, _, sweep_so, _) ->
      let num = function
        | Some s -> Printf.sprintf "%.6f" s
        | None -> "null"
      in
      let ratio base = function
        | Some s -> Printf.sprintf "%.3f" (base /. s)
        | None -> "null"
      in
      Buffer.add_string json
        (Printf.sprintf
           "    {\"jobs\": %d, \"corpus_s\": %s, \"corpus_speedup\": %s, \
            \"sweep_s\": %s, \"sweep_speedup\": %s}%s\n"
           jobs (num corpus_so)
           (ratio corpus1_s corpus_so)
           (num sweep_so)
           (ratio sweep1_s sweep_so)
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string json "  ],\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"identical_across_widths\": %b,\n  \"target_speedup_4\": 2.5,\n"
       !all_identical);
  if cores = 1 then
    Buffer.add_string json
      "  \"skipped_reason\": \"cores_detected = 1: timing widths > 1 would \
       measure pool overhead, not scaling; each width still ran once \
       (untimed) for the identity assertion\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"speedup_assessed\": %b,\n  \"pass\": %b\n}\n"
       assessed pass);
  let oc = open_out "BENCH_par_speedup.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_par_speedup.json\n";
  ignore sweep1_r

(* ------------------------------------------------------------------ *)
(* corpus - the breadth baseline: per-kernel compile time, mapped       *)
(* latency and utilisation across the whole lib/kernels corpus          *)
(* (BENCH_corpus.json), so every future perf PR can diff one artifact   *)
(* instead of re-deriving numbers kernel by kernel.                     *)
(* ------------------------------------------------------------------ *)

let corpus_bench () =
  section "corpus (per-kernel compile / latency / utilisation baseline)";
  let module Metrics = Mapping.Metrics in
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"corpus\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"reps\": %d,\n  \"kernels\": [\n" reps);
  let n = List.length Kernels.all in
  let rows =
    List.mapi
      (fun i (k : Kernels.t) ->
        (* min-of-reps compile time (the E14/E15 noise-robust estimator);
           metrics come from the last run - the flow is deterministic, so
           every rep maps identically. *)
        let best = ref infinity and last = ref None in
        for _ = 1 to reps do
          let r, t = time (fun () -> map_kernel k) in
          best := Float.min !best t;
          last := Some r
        done;
        let r = Option.get !last in
        let m = r.Flow.metrics in
        let nodes = Cdfg.Graph.node_count r.Flow.graph in
        Buffer.add_string json
          (Printf.sprintf
             "    {\"kernel\": \"%s\", \"nodes\": %d, \"compile_s\": %.6f, \
              \"cycles\": %d, \"exec_cycles\": %d, \"levels\": %d, \
              \"alu_utilisation\": %.4f, \"locality\": %.4f, \
              \"energy\": %.1f}%s\n"
             k.Kernels.name nodes !best m.Metrics.cycles m.Metrics.exec_cycles
             m.Metrics.levels m.Metrics.alu_utilisation m.Metrics.locality
             m.Metrics.energy
             (if i = n - 1 then "" else ","));
        [
          k.Kernels.name;
          string_of_int nodes;
          Printf.sprintf "%.4f" !best;
          string_of_int m.Metrics.cycles;
          string_of_int m.Metrics.levels;
          Printf.sprintf "%.2f" m.Metrics.alu_utilisation;
          Printf.sprintf "%.2f" m.Metrics.locality;
        ])
      Kernels.all
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "nodes"; "compile s"; "cycles"; "levels"; "util"; "locality" ]
    rows;
  Buffer.add_string json "  ]\n}\n";
  let oc = open_out "BENCH_corpus.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_corpus.json (%d kernels)\n" n

(* ------------------------------------------------------------------ *)
(* E18 - arena: the flat-array CDFG interior vs the Hashtbl interior it *)
(* replaced. The baseline constants below were measured in the same     *)
(* container at the pre-arena commit (Hashtbl Graph, identical          *)
(* workloads and protocol); worklist_steps matched the arena run        *)
(* byte-for-byte, so the comparison is pure representation cost. The    *)
(* gate: >=1.5x on every single-thread workload of >= 30k nodes, and    *)
(* on a >= 4-core host a re-run of the E16 corpus batch at -j 4 with    *)
(* speedup > 1 (identity asserted on every host).                       *)
(* ------------------------------------------------------------------ *)

let arena () =
  section "E18 arena (flat-array CDFG vs Hashtbl baseline)";
  let module Simplify = Transform.Simplify in
  let module Pool = Fpfa_exec.Pool in
  let reps = 3 in
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Hashtbl-interior reference times: worklist minimize on seed-11
     random DAGs by op count and fully unrolled FIRs by tap count, and one
     sequential map+simulate pass over the kernel corpus (min of 5). *)
  let baseline_random =
    [
      (500, 0.005347); (1_000, 0.012605); (2_000, 0.025305);
      (5_000, 0.095140); (10_000, 0.174430); (20_000, 0.587133);
      (50_000, 1.444657);
    ]
  in
  let baseline_fir = [ (64, 0.006691); (256, 0.053880) ] in
  let baseline_corpus_s = 0.051987 in
  let gate_nodes = 30_000 in
  let target = 1.5 in
  (* min-of-reps; each rep minimizes a fresh copy (the copy is outside
     the timed region). *)
  let wl_time g =
    let best = ref infinity in
    for _ = 1 to reps do
      let g2 = Cdfg.Graph.copy g in
      let _, t = time (fun () -> Simplify.minimize g2) in
      best := Float.min !best t
    done;
    !best
  in
  let gate_ok = ref true in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"arena\",\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"reps\": %d,\n  \"gate_min_nodes\": %d,\n\
       \  \"target_speedup\": %.1f,\n  \"random_graphs\": [\n"
       reps gate_nodes target);
  let emit_row ~label ~nodes ~base_s ~arena_s ~last =
    let speedup = base_s /. arena_s in
    let gated = nodes >= gate_nodes in
    if gated && speedup < target then gate_ok := false;
    Buffer.add_string json
      (Printf.sprintf
         "    {%s, \"nodes\": %d, \"baseline_s\": %.6f, \"arena_s\": %.6f, \
          \"speedup\": %.2f, \"gated\": %b}%s\n"
         label nodes base_s arena_s speedup gated
         (if last then "" else ","))
  in
  let random_rows =
    List.mapi
      (fun i (ops, base_s) ->
        let g = Fpfa_kernels.Random_graph.generate ~seed:11 ~ops () in
        let nodes = Cdfg.Graph.node_count g in
        let arena_s = wl_time g in
        emit_row
          ~label:(Printf.sprintf "\"ops\": %d" ops)
          ~nodes ~base_s ~arena_s
          ~last:(i = List.length baseline_random - 1);
        [
          string_of_int ops;
          string_of_int nodes;
          Printf.sprintf "%.3f" base_s;
          Printf.sprintf "%.3f" arena_s;
          Printf.sprintf "%.2fx" (base_s /. arena_s);
          (if nodes >= gate_nodes then "yes" else "-");
        ])
      baseline_random
  in
  Buffer.add_string json "  ],\n  \"fir\": [\n";
  let fir_rows =
    List.mapi
      (fun i (taps, base_s) ->
        let g = fir_raw taps in
        let nodes = Cdfg.Graph.node_count g in
        let arena_s = wl_time g in
        emit_row
          ~label:(Printf.sprintf "\"taps\": %d" taps)
          ~nodes ~base_s ~arena_s
          ~last:(i = List.length baseline_fir - 1);
        [
          Printf.sprintf "fir-%d" taps;
          string_of_int nodes;
          Printf.sprintf "%.3f" base_s;
          Printf.sprintf "%.3f" arena_s;
          Printf.sprintf "%.2fx" (base_s /. arena_s);
          "-";
        ])
      baseline_fir
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "workload"; "nodes"; "hashtbl s"; "arena s"; "speedup"; "gated" ]
    (random_rows @ fir_rows);
  (* Corpus single-thread: one sequential map+simulate pass over every
     kernel, same protocol as the baseline constant. Small graphs, so
     reported rather than gated - the arena pays off with node count. *)
  let corpus_once () =
    List.iter
      (fun (k : Kernels.t) ->
        let r = map_kernel k in
        ignore (Fpfa_sim.Sim.run ~memory_init:k.Kernels.inputs r.Flow.job))
      Kernels.all
  in
  let corpus_s =
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, t = time corpus_once in
      best := Float.min !best t
    done;
    !best
  in
  let corpus_speedup = baseline_corpus_s /. corpus_s in
  Printf.printf
    "\ncorpus (sequential map+simulate, %d kernels): hashtbl %.3fs, arena \
     %.3fs, %.2fx\n"
    (List.length Kernels.all)
    baseline_corpus_s corpus_s corpus_speedup;
  (* E16 re-check: the parallel corpus batch must still be worth it on a
     real multi-core host, and bit-identical everywhere. *)
  let corpus_par jobs =
    Pool.map_ordered ~jobs
      (fun (k : Kernels.t) ->
        let r = map_kernel k in
        let memory, _ =
          Fpfa_sim.Sim.run ~memory_init:k.Kernels.inputs r.Flow.job
        in
        (r.Flow.metrics, memory))
      Kernels.all
  in
  let par_identical = corpus_par 4 = corpus_par 1 in
  let par_assessed = cores >= 4 in
  let par_speedup_4 =
    if not par_assessed then None
    else begin
      let measure jobs =
        let best = ref infinity in
        for _ = 1 to reps do
          let _, t = time (fun () -> corpus_par jobs) in
          best := Float.min !best t
        done;
        !best
      in
      let t1 = measure 1 in
      let t4 = measure 4 in
      Some (t1 /. t4)
    end
  in
  (match par_speedup_4 with
  | Some s ->
    Printf.printf "parallel corpus -j4: %.2fx vs -j1 (%d cores); identity %s\n"
      s cores
      (if par_identical then "holds" else "BROKEN")
  | None ->
    Printf.printf
      "parallel corpus speedup not assessable (%d core%s < 4); identity %s\n"
      cores
      (if cores = 1 then "" else "s")
      (if par_identical then "holds" else "BROKEN"));
  let pass =
    !gate_ok && par_identical
    && (match par_speedup_4 with Some s -> s > 1.0 | None -> true)
  in
  Printf.printf "single-thread gate (>=%.1fx at >=%dk nodes): %s\n" target
    (gate_nodes / 1000)
    (if !gate_ok then "PASS" else "FAIL");
  Buffer.add_string json
    (Printf.sprintf
       "  ],\n  \"corpus\": {\"kernels\": %d, \"baseline_s\": %.6f, \
        \"arena_s\": %.6f, \"speedup\": %.2f},\n"
       (List.length Kernels.all)
       baseline_corpus_s corpus_s corpus_speedup);
  Buffer.add_string json
    (Printf.sprintf
       "  \"multicore\": {\"cores_detected\": %d, \"assessed\": %b, \
        \"identical\": %b, %s},\n"
       cores par_assessed par_identical
       (match par_speedup_4 with
       | Some s -> Printf.sprintf "\"corpus_speedup_j4\": %.3f" s
       | None ->
         "\"skipped_reason\": \"needs >= 4 cores; identity still asserted\""));
  Buffer.add_string json
    (Printf.sprintf "  \"single_thread_gate_ok\": %b,\n  \"pass\": %b\n}\n"
       !gate_ok pass);
  let oc = open_out "BENCH_arena.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_arena.json\n"

(* ------------------------------------------------------------------ *)
(* E17 - alias_prune: the statespace address analysis as an enabler.    *)
(* Disambiguation deletes provably-false anti-dependence order edges;   *)
(* on the in-place delay-line FIR family every conservative edge goes,  *)
(* the schedule never deepens, and the analysis overhead stays <15% of  *)
(* the flow.                                                            *)
(* ------------------------------------------------------------------ *)

let alias_prune () =
  section "E17 alias_prune (order-edge disambiguation)";
  let module Disambig = Transform.Disambig in
  let module Addr = Fpfa_analysis.Addr in
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let workloads =
    [
      Kernels.fir_delay ~taps:16;
      Kernels.fir_delay ~taps:64;
      Kernels.fir_delay ~taps:256;
      Kernels.fir ~taps:16;
      Kernels.fir_paper;
      Kernels.matmul ~n:4;
    ]
  in
  let off_config = { Flow.default_config with Flow.disambiguate = false } in
  let levels_never_deepen = ref true in
  let worst_overhead = ref 0.0 in
  let delay_line_removed = ref 0 in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"alias_prune\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"reps\": %d,\n  \"kernels\": [\n" reps);
  let rows =
    List.mapi
      (fun i (k : Kernels.t) ->
        (* min-of-reps, alternating modes (the E14/E15 estimator) *)
        let off_s = ref infinity
        and on_s = ref infinity
        and prune_s = ref infinity in
        let r_off = ref None and r_on = ref None in
        for _ = 1 to reps do
          let r, t = time (fun () -> Flow.map_source ~config:off_config k.Kernels.source) in
          off_s := Float.min !off_s t;
          r_off := Some r;
          let r, t = time (fun () -> Flow.map_source k.Kernels.source) in
          on_s := Float.min !on_s t;
          r_on := Some r;
          (* the analysis + pruning cost in isolation, on the graph the
             stage actually sees (the simplified, unpruned CDFG) *)
          let g = Cdfg.Graph.copy (Option.get !r_off).Flow.graph in
          let _, t = time (fun () -> Addr.prune g) in
          prune_s := Float.min !prune_s t
        done;
        let r_off = Option.get !r_off and r_on = Option.get !r_on in
        let rep = r_on.Flow.disambig_report in
        let levels_off = Mapping.Sched.level_count r_off.Flow.schedule in
        let levels_on = Mapping.Sched.level_count r_on.Flow.schedule in
        if levels_on > levels_off then levels_never_deepen := false;
        let overhead_pct = !prune_s /. !on_s *. 100.0 in
        worst_overhead := Float.max !worst_overhead overhead_pct;
        if String.length k.Kernels.name >= 6
           && String.sub k.Kernels.name 0 6 = "fir-dl"
        then delay_line_removed := !delay_line_removed + rep.Disambig.removed;
        Buffer.add_string json
          (Printf.sprintf
             "    {\"kernel\": \"%s\", \"order_edges_before\": %d, \
              \"order_edges_after\": %d, \"removed\": %d, \"retargeted\": %d, \
              \"kept_unknown\": %d, \"levels_off\": %d, \"levels_on\": %d, \
              \"flow_s\": %.6f, \"prune_s\": %.6f, \"overhead_pct\": %.2f}%s\n"
             k.Kernels.name rep.Disambig.order_edges_before
             rep.Disambig.order_edges_after rep.Disambig.removed
             rep.Disambig.retargeted rep.Disambig.kept_unknown levels_off
             levels_on !on_s !prune_s overhead_pct
             (if i = List.length workloads - 1 then "" else ","));
        [
          k.Kernels.name;
          string_of_int rep.Disambig.order_edges_before;
          string_of_int rep.Disambig.order_edges_after;
          string_of_int rep.Disambig.removed;
          string_of_int rep.Disambig.retargeted;
          Printf.sprintf "%d -> %d" levels_off levels_on;
          Printf.sprintf "%.1f %%" overhead_pct;
        ])
      workloads
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "edges"; "after"; "removed"; "retarget"; "levels"; "cost" ]
    rows;
  let pass =
    !levels_never_deepen && !delay_line_removed > 0 && !worst_overhead < 15.0
  in
  Printf.printf
    "delay-line FIR family: %d false anti-dependence edges removed.\n\
     schedule levels %s; worst analysis cost %.1f%% of the flow \
     (target <15%%).\n"
    !delay_line_removed
    (if !levels_never_deepen then "never deepen" else "DEEPENED")
    !worst_overhead;
  Buffer.add_string json
    (Printf.sprintf
       "  ],\n  \"delay_line_removed\": %d,\n\
       \  \"levels_never_deepen\": %b,\n\
       \  \"worst_overhead_pct\": %.2f,\n\
       \  \"target_pct\": 15.0,\n\
       \  \"pass\": %b\n}\n"
       !delay_line_removed !levels_never_deepen !worst_overhead pass);
  let oc = open_out "BENCH_alias_prune.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_alias_prune.json\n"

(* ------------------------------------------------------------------ *)
(* E19 - serve: compile-as-a-service latency through the daemon's       *)
(* content-addressed cache. A repeated-corpus workload measures the     *)
(* cold path (every request a full compile) against the warm path       *)
(* (every request a cache hit); results must be byte-identical with     *)
(* the cache off, near-miss requests must resume mid-flow, and the      *)
(* batch admission path re-checks the E16/E18 multi-core gates.         *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "E19 serve (compile-as-a-service cache)";
  let module Serve = Fpfa_serve.Serve in
  let module Json = Fpfa_util.Json in
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let compile_req (k : Kernels.t) =
    Json.parse
      (Printf.sprintf {|{"op":"compile","kernel":"%s"}|} k.Kernels.name)
  in
  let result_bytes resp =
    match Json.member "result" resp with
    | Some v -> Json.to_string v
    | None -> failwith ("serve response without result: " ^ Json.to_string resp)
  in
  let expect_ok resp =
    (match Json.member "ok" resp with
    | Some (Json.Bool true) -> ()
    | _ -> failwith ("serve request failed: " ^ Json.to_string resp));
    resp
  in
  let n_kernels = List.length Kernels.all in
  (* Cold pass: a fresh daemon, every request is a full compile. *)
  let daemon = Serve.create ~cache_size:256 () in
  let cold_results, cold_s =
    time (fun () ->
        List.map
          (fun k -> result_bytes (expect_ok (Serve.handle daemon (compile_req k))))
          Kernels.all)
  in
  (* Warm passes: same daemon, same requests, answered from the cache. *)
  let warm_passes = 50 in
  let warm_results = ref [] in
  let _, warm_s =
    time (fun () ->
        for _ = 1 to warm_passes do
          warm_results :=
            List.map
              (fun k ->
                result_bytes (expect_ok (Serve.handle daemon (compile_req k))))
              Kernels.all
        done)
  in
  let cold_per_req = cold_s /. float_of_int n_kernels in
  let warm_per_req = warm_s /. float_of_int (n_kernels * warm_passes) in
  let warm_speedup = cold_per_req /. warm_per_req in
  (* Byte identity: warm hits and a cache-off daemon must agree with the
     cold pass on every kernel. *)
  let uncached = Serve.create ~cache_size:0 () in
  let off_results =
    List.map
      (fun k -> result_bytes (expect_ok (Serve.handle uncached (compile_req k))))
      Kernels.all
  in
  let identical =
    cold_results = !warm_results && cold_results = off_results
  in
  Printf.printf
    "corpus (%d kernels): cold %.2f ms/req, warm %.4f ms/req, %.0fx; \
     identity %s\n"
    n_kernels (cold_per_req *. 1000.0) (warm_per_req *. 1000.0) warm_speedup
    (if identical then "holds" else "BROKEN");
  (* Near-miss resumption: a config tweak after the corpus is cached
     re-enters the staged flow instead of recompiling from source. *)
  let resumed_count = ref 0 in
  let resume_reqs =
    List.map
      (fun (k : Kernels.t) ->
        Json.parse
          (Printf.sprintf {|{"op":"compile","kernel":"%s","alus":3}|}
             k.Kernels.name))
      Kernels.all
  in
  let resumed_responses, resume_s =
    time (fun () ->
        List.map
          (fun r ->
            let resumed = expect_ok (Serve.handle daemon r) in
            (match Json.member "resumed_from" resumed with
            | Some (Json.Str _) -> incr resumed_count
            | _ -> ());
            resumed)
          resume_reqs)
  in
  let resume_results_match =
    ref
      (List.for_all2
         (fun r resumed ->
           let fresh = expect_ok (Serve.handle uncached r) in
           result_bytes resumed = result_bytes fresh)
         resume_reqs resumed_responses)
  in
  let resume_per_req = resume_s /. float_of_int n_kernels in
  Printf.printf
    "near-miss (alus:3 after default): %d/%d resumed mid-flow, %.2f ms/req; \
     results %s fresh compiles\n"
    !resumed_count n_kernels
    (resume_per_req *. 1000.0)
    (if !resume_results_match then "match" else "DIVERGE from");
  (* Cache bookkeeping straight from the daemon's stats endpoint. *)
  let stats = expect_ok (Serve.handle daemon (Json.parse {|{"op":"stats"}|})) in
  let cache_int level name =
    match
      Option.bind (Json.member "result" stats) (fun r ->
          Option.bind (Json.member "cache" r) (fun c ->
              Option.bind (Json.member level c) (Json.member name)))
    with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  let req_hits = cache_int "request" "hits" in
  let req_misses = cache_int "request" "misses" in
  let hit_rate =
    if req_hits + req_misses = 0 then 0.0
    else float_of_int req_hits /. float_of_int (req_hits + req_misses)
  in
  Printf.printf "request cache: %d hits / %d misses (%.1f%% hit rate)\n"
    req_hits req_misses (hit_rate *. 100.0);
  Serve.shutdown daemon;
  Serve.shutdown uncached;
  (* E16/E18 re-check through the batch admission path: a cold batch of
     the whole corpus fanned over the pool must match the sequential
     daemon byte for byte, and still be worth it on a multi-core host. *)
  let batch_req =
    Json.parse
      (Printf.sprintf {|{"op":"batch","requests":[%s]}|}
         (String.concat ","
            (List.map
               (fun (k : Kernels.t) ->
                 Printf.sprintf {|{"op":"compile","kernel":"%s"}|}
                   k.Kernels.name)
               Kernels.all)))
  in
  let batch_results jobs =
    (* fresh daemon per run so every batch is a cold one *)
    let s = Serve.create ~jobs ~cache_size:256 () in
    let r, t = time (fun () -> expect_ok (Serve.handle s batch_req)) in
    Serve.shutdown s;
    let rows =
      match Option.bind (Json.member "result" r) (Json.member "responses") with
      | Some (Json.List rs) -> List.map (fun r -> result_bytes (expect_ok r)) rs
      | _ -> failwith "batch result has no responses"
    in
    (rows, t)
  in
  let rows4, _ = batch_results 4 in
  let rows1, _ = batch_results 1 in
  let batch_identical = rows4 = rows1 && rows4 = cold_results in
  let batch_assessed = cores >= 4 in
  let batch_speedup_4 =
    if not batch_assessed then None
    else begin
      let measure jobs =
        let best = ref infinity in
        for _ = 1 to 3 do
          let _, t = batch_results jobs in
          best := Float.min !best t
        done;
        !best
      in
      let t1 = measure 1 in
      let t4 = measure 4 in
      Some (t1 /. t4)
    end
  in
  (match batch_speedup_4 with
  | Some s ->
    Printf.printf "cold batch -j4: %.2fx vs -j1 (%d cores); identity %s\n" s
      cores
      (if batch_identical then "holds" else "BROKEN")
  | None ->
    Printf.printf
      "cold batch speedup not assessable (%d core%s < 4); identity %s\n" cores
      (if cores = 1 then "" else "s")
      (if batch_identical then "holds" else "BROKEN"));
  let target = 100.0 in
  let pass =
    identical && !resume_results_match && batch_identical
    && warm_speedup >= target
    && (match batch_speedup_4 with Some s -> s > 1.0 | None -> true)
  in
  Printf.printf "warm/cold gate (>=%.0fx): %s\n" target
    (if pass then "PASS" else "FAIL");
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"serve\",\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"kernels\": %d,\n  \"warm_passes\": %d,\n\
       \  \"cold_s_per_req\": %.6f,\n  \"warm_s_per_req\": %.8f,\n\
       \  \"warm_speedup\": %.1f,\n  \"target_speedup\": %.1f,\n"
       n_kernels warm_passes cold_per_req warm_per_req warm_speedup target);
  Buffer.add_string json
    (Printf.sprintf
       "  \"identical_cache_on_off\": %b,\n\
       \  \"resumed\": %d,\n  \"resume_results_match\": %b,\n\
       \  \"resume_s_per_req\": %.6f,\n\
       \  \"request_cache_hits\": %d,\n  \"request_cache_misses\": %d,\n\
       \  \"hit_rate\": %.4f,\n"
       identical !resumed_count !resume_results_match resume_per_req req_hits
       req_misses hit_rate);
  Buffer.add_string json
    (Printf.sprintf
       "  \"multicore\": {\"cores_detected\": %d, \"assessed\": %b, \
        \"identical\": %b, %s},\n"
       cores batch_assessed batch_identical
       (match batch_speedup_4 with
       | Some s -> Printf.sprintf "\"batch_speedup_j4\": %.3f" s
       | None ->
         "\"skipped_reason\": \"needs >= 4 cores; identity still asserted\""));
  Buffer.add_string json (Printf.sprintf "  \"pass\": %b\n}\n" pass);
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_serve.json\n"

(* ------------------------------------------------------------------ *)
(* E20 - depend: loop-carried dependence analysis and II lower bounds. *)
(* Over the whole corpus: every analysed loop gets an II lower bound,  *)
(* the differential validator refutes zero must-independent verdicts,  *)
(* the recurrence kernels report their exact RecMII with a named       *)
(* cycle, and the analysis costs <15% of the compile it annotates.     *)
(* ------------------------------------------------------------------ *)

let depend_bench () =
  section "E20 depend (loop-carried dependence / II lower bounds)";
  let module Dep = Fpfa_analysis.Depend in
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let kernels = Kernels.all in
  let loops_total = ref 0
  and skipped_total = ref 0
  and refuted_total = ref 0
  and unchecked_total = ref 0
  and pairs_total = ref 0
  and all_bounded = ref true
  and analysis_total = ref 0.0
  and compile_total = ref 0.0
  and worst_overhead = ref 0.0 in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"depend\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"reps\": %d,\n  \"kernels\": [\n" reps);
  let rows =
    List.mapi
      (fun i (k : Kernels.t) ->
        let analysis_s = ref infinity and compile_s = ref infinity in
        let report = ref None in
        for _ = 1 to reps do
          let r, t = time (fun () -> Dep.analyze_source k.Kernels.source) in
          analysis_s := Float.min !analysis_s t;
          report := Some r;
          let _, t = time (fun () -> Flow.map_source k.Kernels.source) in
          compile_s := Float.min !compile_s t
        done;
        let report = Option.get !report in
        (* the validator is a heavyweight differential check (it re-unrolls
           and re-minimises every loop), so it is timed apart from the
           analysis whose cost the 15% gate bounds *)
        let validation, validate_s = time (fun () -> Dep.validate report) in
        let loops = List.length report.Dep.loops in
        let max_ii =
          List.fold_left
            (fun acc (lr : Dep.loop_report) ->
              if lr.Dep.ii_lower_bound < 1 then all_bounded := false;
              max acc lr.Dep.ii_lower_bound)
            0 report.Dep.loops
        in
        let overhead_pct = !analysis_s /. !compile_s *. 100.0 in
        loops_total := !loops_total + loops;
        skipped_total := !skipped_total + List.length report.Dep.skipped;
        refuted_total := !refuted_total + List.length validation.Dep.refuted;
        unchecked_total :=
          !unchecked_total + List.length validation.Dep.unchecked;
        pairs_total := !pairs_total + validation.Dep.pairs;
        analysis_total := !analysis_total +. !analysis_s;
        compile_total := !compile_total +. !compile_s;
        worst_overhead := Float.max !worst_overhead overhead_pct;
        Buffer.add_string json
          (Printf.sprintf
             "    {\"kernel\": \"%s\", \"loops\": %d, \"skipped\": %d, \
              \"max_ii\": %d, \"validated\": %d, \"unchecked\": %d, \
              \"refuted\": %d, \"pairs\": %d, \"analysis_s\": %.6f, \
              \"compile_s\": %.6f, \"validate_s\": %.6f, \
              \"overhead_pct\": %.2f}%s\n"
             k.Kernels.name loops
             (List.length report.Dep.skipped)
             max_ii validation.Dep.checked
             (List.length validation.Dep.unchecked)
             (List.length validation.Dep.refuted)
             validation.Dep.pairs !analysis_s !compile_s validate_s
             overhead_pct
             (if i = List.length kernels - 1 then "" else ","));
        [
          k.Kernels.name;
          string_of_int loops;
          string_of_int max_ii;
          Printf.sprintf "%d/%d" validation.Dep.checked loops;
          string_of_int (List.length validation.Dep.refuted);
          Printf.sprintf "%.1f %%" overhead_pct;
        ])
      kernels
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "kernel"; "loops"; "max II"; "validated"; "refuted"; "cost" ]
    rows;
  (* the recurrence kernels must hit their exact RecMII with a named cycle *)
  let expected_recurrences =
    [ ("cumsum-8", 3); ("iir1-8", 5); ("mavg-acc-4-8", 2) ]
  in
  let recurrences_exact = ref true in
  let rec_json =
    List.map
      (fun (name, expected) ->
        let k = Kernels.find name in
        let r = Dep.analyze_source k.Kernels.source in
        let rec_mii =
          List.fold_left
            (fun acc (lr : Dep.loop_report) -> max acc lr.Dep.rec_mii)
            0 r.Dep.loops
        in
        let cycle =
          List.fold_left
            (fun acc (lr : Dep.loop_report) ->
              match lr.Dep.recurrences with
              | (r0 : Dep.recurrence) :: _ when lr.Dep.rec_mii = rec_mii ->
                String.concat " -> " r0.Dep.cycle
              | _ -> acc)
            "" r.Dep.loops
        in
        if rec_mii <> expected || cycle = "" then recurrences_exact := false;
        Printf.printf "%-14s RecMII %d (expected %d), cycle: %s\n" name
          rec_mii expected cycle;
        Printf.sprintf
          "    {\"kernel\": \"%s\", \"rec_mii\": %d, \"expected\": %d, \
           \"cycle\": \"%s\"}"
          name rec_mii expected cycle)
      expected_recurrences
  in
  let overall_pct = !analysis_total /. !compile_total *. 100.0 in
  let pass =
    !all_bounded && !refuted_total = 0 && !recurrences_exact
    && overall_pct < 15.0
  in
  Printf.printf
    "%d loop(s) over %d kernels, %d skipped; %d collision(s) validated, %d \
     unchecked loop(s), %d refutation(s).\n\
     analysis cost: %.1f%% of compile overall, %.1f%% worst kernel (target \
     <15%% overall).\n"
    !loops_total (List.length kernels) !skipped_total !pairs_total
    !unchecked_total !refuted_total overall_pct !worst_overhead;
  Buffer.add_string json
    (Printf.sprintf
       "  ],\n  \"recurrence_kernels\": [\n%s\n  ],\n\
       \  \"loops_total\": %d,\n  \"skipped_total\": %d,\n\
       \  \"refuted_total\": %d,\n  \"unchecked_total\": %d,\n\
       \  \"pairs_total\": %d,\n  \"all_loops_bounded\": %b,\n\
       \  \"recurrences_exact\": %b,\n  \"overall_overhead_pct\": %.2f,\n\
       \  \"worst_overhead_pct\": %.2f,\n  \"target_pct\": 15.0,\n\
       \  \"pass\": %b\n}\n"
       (String.concat ",\n" rec_json)
       !loops_total !skipped_total !refuted_total !unchecked_total
       !pairs_total !all_bounded !recurrences_exact overall_pct
       !worst_overhead pass);
  let oc = open_out "BENCH_depend.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_depend.json\n"

(* ------------------------------------------------------------------ *)
(* E22 - bitopt: certified bit-level optimisation. Over the corpus:    *)
(* compile with the pass off and on, count the verified rewrites       *)
(* (folds, mask/mux redirects, multiplier demotions), compare the      *)
(* mapped ALU-op and multiplier-op counts, require identical Eval      *)
(* results on the kernel's own inputs and a green conformance triple,  *)
(* and bound the stage's cost (facts + derivation + certified apply,   *)
(* including the verifier's independent fact recomputation) under 15%  *)
(* of the compile it rides in.                                         *)
(* ------------------------------------------------------------------ *)

let bitopt_bench () =
  section "E22 bitopt (certified bit-level optimisation)";
  let module Bitopt = Transform.Bitopt in
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let off_config = { Flow.default_config with Flow.bitopt = false } in
  let kernels = Kernels.all in
  let rewritten = ref 0
  and demoted = ref 0
  and ops_removed_total = ref 0
  and all_identical = ref true
  and all_verified = ref true
  and pass_total = ref 0.0
  and compile_total = ref 0.0
  and worst_overhead = ref 0.0 in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"experiment\": \"bitopt\",\n";
  Buffer.add_string json
    (Printf.sprintf "  \"reps\": %d,\n  \"kernels\": [\n" reps);
  let rows =
    List.mapi
      (fun i (k : Kernels.t) ->
        let off = Flow.map_source ~config:off_config k.Kernels.source in
        let compile_s = ref infinity and pass_s = ref infinity in
        let on_ = ref None in
        for _ = 1 to reps do
          let r, t = time (fun () -> Flow.map_source k.Kernels.source) in
          compile_s := Float.min !compile_s t;
          on_ := Some r;
          (* the stage's own cost on the state it sees in-flow: facts,
             derivation, certified apply — the verifier's independent
             fact recomputation included, exactly as the flow pays it *)
          let g = Cdfg.Graph.copy off.Flow.graph in
          let _, t =
            time (fun () ->
                let facts = Transform.Absdom.analyze g in
                let claims =
                  Bitopt.derive (Transform.Absdom.value facts) g
                in
                if claims <> [] then
                  ignore
                    (Bitopt.apply
                       ~verify:(fun g cs -> Fpfa_analysis.Verify.bits g cs)
                       g claims))
          in
          pass_s := Float.min !pass_s t
        done;
        let on_ = Option.get !on_ in
        let rep = on_.Flow.bitopt_report in
        let rewrites = rep.Bitopt.folds + rep.Bitopt.redirects + rep.Bitopt.demotes in
        let m_off = off.Flow.metrics and m_on = on_.Flow.metrics in
        let ops_removed =
          m_off.Metrics.alu_ops - m_on.Metrics.alu_ops
          + (m_off.Metrics.mul_ops - m_on.Metrics.mul_ops)
        in
        let identical =
          Cdfg.Eval.equal_result
            (Cdfg.Eval.run ~memory_init:k.Kernels.inputs on_.Flow.graph)
            (Cdfg.Eval.run ~memory_init:k.Kernels.inputs off.Flow.graph)
        in
        let verified = Flow.verify on_ in
        let overhead_pct = !pass_s /. !compile_s *. 100.0 in
        if rewrites > 0 then incr rewritten;
        if rep.Bitopt.demotes > 0 then incr demoted;
        ops_removed_total := !ops_removed_total + ops_removed;
        if not identical then all_identical := false;
        if not verified then all_verified := false;
        pass_total := !pass_total +. !pass_s;
        compile_total := !compile_total +. !compile_s;
        worst_overhead := Float.max !worst_overhead overhead_pct;
        Buffer.add_string json
          (Printf.sprintf
             "    {\"kernel\": \"%s\", \"folds\": %d, \"redirects\": %d, \
              \"demotes\": %d, \"rounds\": %d, \"alu_ops_off\": %d, \
              \"alu_ops_on\": %d, \"mul_ops_off\": %d, \"mul_ops_on\": %d, \
              \"ops_removed\": %d, \"identical\": %b, \"verified\": %b, \
              \"pass_s\": %.6f, \"compile_s\": %.6f, \"overhead_pct\": \
              %.2f}%s\n"
             k.Kernels.name rep.Bitopt.folds rep.Bitopt.redirects
             rep.Bitopt.demotes rep.Bitopt.rounds m_off.Metrics.alu_ops
             m_on.Metrics.alu_ops m_off.Metrics.mul_ops m_on.Metrics.mul_ops
             ops_removed identical verified !pass_s !compile_s overhead_pct
             (if i = List.length kernels - 1 then "" else ","));
        if rewrites > 0 then
          [
            k.Kernels.name;
            string_of_int rep.Bitopt.folds;
            string_of_int rep.Bitopt.redirects;
            string_of_int rep.Bitopt.demotes;
            Printf.sprintf "%d->%d" m_off.Metrics.alu_ops m_on.Metrics.alu_ops;
            Printf.sprintf "%d->%d" m_off.Metrics.mul_ops m_on.Metrics.mul_ops;
            string_of_bool identical;
            Printf.sprintf "%.1f %%" overhead_pct;
          ]
        else [])
      kernels
  in
  Fpfa_util.Tablefmt.print
    ~header:
      [ "kernel"; "folds"; "redir"; "demote"; "alu ops"; "mul ops"; "same";
        "cost" ]
    (List.filter (fun r -> r <> []) rows);
  let overall_pct = !pass_total /. !compile_total *. 100.0 in
  let pass =
    !rewritten >= 3 && !demoted >= 1 && !ops_removed_total > 0
    && !all_identical && !all_verified && overall_pct < 15.0
  in
  Printf.printf
    "%d kernel(s) rewritten (%d with multiplier demotions), %d op(s) \
     removed net; identical results: %b, conformance: %b.\n\
     stage cost: %.1f%% of compile overall, %.1f%% worst kernel (target \
     <15%% overall).\n"
    !rewritten !demoted !ops_removed_total !all_identical !all_verified
    overall_pct !worst_overhead;
  Buffer.add_string json
    (Printf.sprintf
       "  ],\n  \"rewritten_kernels\": %d,\n  \"demoted_kernels\": %d,\n\
       \  \"ops_removed_total\": %d,\n  \"all_identical\": %b,\n\
       \  \"all_verified\": %b,\n  \"overall_overhead_pct\": %.2f,\n\
       \  \"worst_overhead_pct\": %.2f,\n  \"target_pct\": 15.0,\n\
       \  \"rewritten_floor\": 3,\n  \"pass\": %b\n}\n"
       !rewritten !demoted !ops_removed_total !all_identical !all_verified
       overall_pct !worst_overhead pass);
  let oc = open_out "BENCH_bitopt.json" in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote BENCH_bitopt.json\n"

let () =
  let only =
    match Array.to_list Sys.argv with
    | [ _ ] -> None
    | _ :: names -> Some names
    | [] -> None
  in
  let run name f =
    match only with
    | Some names when not (List.mem name names) -> ()
    | Some _ | None -> f ()
  in
  run "fig3" fig3_fir_cdfg;
  run "fig4" fig4_scheduling;
  run "fig5" fig5_allocation;
  run "resources" tile_resource_usage;
  run "complexity" phase_complexity;
  run "speedup" speedup;
  run "locality" locality_ablation;
  run "unroll" unroll_sweep;
  run "loops" loop_mapping;
  run "branches" branch_cost;
  run "interleave" interleaving;
  run "priority" priority_ablation;
  run "obs" obs_overhead;
  run "verify" verify_overhead;
  run "par" par_speedup;
  run "corpus" corpus_bench;
  run "arena" arena;
  run "alias" alias_prune;
  run "serve" serve_bench;
  run "depend" depend_bench;
  run "bitopt" bitopt_bench;
  Printf.printf "\nall experiments done.\n"
