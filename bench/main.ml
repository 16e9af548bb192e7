(* Bench harness: the paper's evaluation (Figs. 1 and 3-5, the Section VI
   linearity claim, the Section VII sweeps) and the timing bounds of the
   infrastructure claims. EXPERIMENTS.md holds the measured tables and
   DESIGN.md section 4 the experiment index.

     dune exec bench/main.exe -- [NAME ...]

   runs the named experiments in the order below, or all of them with no
   name. Exit status: 0 when every gate holds, 1 when a gate fails, 2 on
   an unknown name (the valid names are printed and nothing runs) or an
   uncaught exception, such as a failed shape assertion in fig3 or fig4.
   A gate is a bound whose failure fails CI; CI runs `complexity costs`.

     E1  fig3        paper Fig. 3  (FIR after unroll + simplify)
     E2  fig4        paper Fig. 4  (level insertion on 5 ALUs)
     E3  fig5        paper Fig. 5  (heuristic allocation, window)
     E4  resources   paper Fig. 1  (hardware limits respected)
     E5  complexity  Section VI    (linear-time phases, Bechamel; writes
                                    BENCH_complexity.json. Gate: us/cluster
                                    grows at most 4x from 300 to 3000 ops
                                    per phase, and the simplifier's us/raw
                                    node at most 2x from matmul n=4 to
                                    n=10 and from fir 64 to 512 taps)
     E6  speedup     Section VII   ("maximum parallelism")
     E7  locality    Section VII   ("locality of reference")
     E8  unroll      Section V     (unrolling as the enabler)
     E9  loops       Section VII   (future work: loops mapped by
                                    configuration reuse)
     E10 branches    Section VII   (future work: branches via
                                    if-conversion; speculation cost)
     E11 interleave  Section II    (memory-port bottleneck fix: two-way
                                    array interleaving)
     E12 priority    Section VI-B  (ready-priority choice in the level
                                    scheduler)
     E14 obs         null-sink cost of lib/obs (target <2%; writes
                     BENCH_obs_overhead.json)
     E15 verify      --verify-each-pass cost on a seed-11 random-DAG
                     sweep (target <15%; writes BENCH_verify_overhead.json)
         costs       one gate per timing bound of an infrastructure claim:
                     E19 serve cache, E20 dependence analysis, E22
                     bit-level pass. The deterministic halves of those
                     claims are tests.

   E13, E16, E17, E18 and E21 are retired; EXPERIMENTS.md keeps their
   last tables. Absolute numbers are ours (the substrate is a simulator, not
   the CHAMELEON testbed); the shapes are what EXPERIMENTS.md compares. *)

module Arch = Fpfa_arch.Arch
module Flow = Fpfa_core.Flow
module Metrics = Mapping.Metrics
module Kernels = Fpfa_kernels.Kernels

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let map_kernel ?(variant = Baseline.paper) (k : Kernels.t) =
  Baseline.map_source variant k.Kernels.source

(* Names of the gates that failed; any makes the binary exit 1. *)
let failed_gates = ref []

let gate name ok = if not ok then failed_gates := name :: !failed_gates

let seconds f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

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

(* The gate: per phase, us/cluster at the largest size may be at most
   this multiple of its value at [gate_base] ops. A linear phase keeps the
   ratio near 1 (cache effects drift it upwards); a quadratic one grows
   it roughly tenfold from 300 to 3000 ops. *)
let complexity_growth_limit = 4.0

(* The simplifier's rows: [Simplify.minimize] on a fresh copy of a
   kernel's raw graph, in us per raw node. Two pairs of rows are gated on
   their own, tighter limit. Matmul n = 4 to 10 spans 0.5k to 6.5k raw
   nodes (the builder folds constants and forwards stores as it builds):
   its constant hubs grow with n, so a use/def update that costs the
   producer's degree shows there first. Fir 64 to 512 taps spans 0.5k to
   3.6k raw nodes around one accumulation chain as long as the taps, so a
   chain rebalance that walks the whole chain at every member shows
   there. The corr rows are printed only. *)
let simplify_gates = [ ("matmul-4", "matmul-10"); ("fir-64", "fir-512") ]
let simplify_growth_limit = 2.0

let simplify_kernels =
  List.map (fun n -> Kernels.matmul ~n) [ 4; 6; 8; 10 ]
  @ List.map (fun taps -> Kernels.fir ~taps) [ 64; 128; 256; 512 ]
  @ List.map (fun n -> Kernels.correlation ~lags:8 ~n) [ 16; 32; 64 ]

(* Rounds of the simplifier timing: each round minimises every kernel
   once, in order. A slow phase of a shared host lasts seconds, so it
   slows the rows of the rounds it overlaps alike, where timing one
   kernel after another let it land on one row of a ratio only. *)
let simplify_rounds = 9

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

(* (kernel, raw nodes, minimised nodes, us per raw node of each round) *)
let simplify_rows () =
  let raws =
    List.map
      (fun (k : Kernels.t) ->
        ( k.Kernels.name,
          Flow.Staged.raw_graph
            (Flow.Staged.of_source ~config:Flow.default_config k.Kernels.source)
        ))
      simplify_kernels
  in
  (* the copy is not timed *)
  let time raw =
    let g = Cdfg.Graph.copy raw in
    let dt = seconds (fun () -> Transform.Simplify.minimize ~validate:false g) in
    (dt *. 1e6 /. float_of_int (Cdfg.Graph.node_count raw), Cdfg.Graph.node_count g)
  in
  let rounds =
    List.init simplify_rounds (fun _ -> List.map (fun (_, raw) -> time raw) raws)
  in
  List.mapi
    (fun i (name, raw) ->
      let runs = List.map (fun round -> List.nth round i) rounds in
      (name, Cdfg.Graph.node_count raw, snd (List.hd runs), List.map fst runs))
    raws

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
  let per_node (_, _, _, runs) = median runs in
  let per_run ((_, raw, _, _) as r) = per_node r *. float_of_int raw in
  let simplify_at name =
    List.find (fun (k, _, _, _) -> String.equal k name) simplify
  in
  (* per gate, the median over rounds of the top row's time over the base
     row's *)
  let simplify_growth =
    List.map
      (fun (base, top) ->
        let _, _, _, base_runs = simplify_at base
        and _, _, _, top_runs = simplify_at top in
        ((base, top), median (List.map2 ( /. ) top_runs base_runs)))
      simplify_gates
  in
  let simplify_pass =
    List.for_all (fun (_, r) -> r <= simplify_growth_limit) simplify_growth
  in
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
       (fun ((k, raw, min, _) as r) ->
         [
           k;
           string_of_int raw;
           string_of_int min;
           Printf.sprintf "%.0f" (per_run r);
           Printf.sprintf "%.2f" (per_node r);
         ])
       simplify);
  List.iter
    (fun ((base, top), r) ->
      Printf.printf "simplify  us/node %s -> %s: %.2fx (limit %.0fx)\n" base top
        r simplify_growth_limit)
    simplify_growth;
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
                     (fun ((k, raw, min, _) as r) ->
                       Json.Obj
                         [
                           ("kernel", Json.Str k);
                           ("raw_nodes", Json.Int raw);
                           ("min_nodes", Json.Int min);
                           ("us_per_run", Json.Float (per_run r));
                           ("us_per_node", Json.Float (per_node r));
                         ])
                     simplify) );
              ("rounds", Json.Int simplify_rounds);
              ( "gates",
                Json.List
                  (List.map
                     (fun ((base, top), r) ->
                       Json.Obj
                         [
                           ("base", Json.Str base);
                           ("top", Json.Str top);
                           ("growth", Json.Float r);
                         ])
                     simplify_growth) );
              ("growth_limit", Json.Float simplify_growth_limit);
              ("pass", Json.Bool simplify_pass);
            ] );
        ("pass", Json.Bool pass);
      ]
  in
  let oc = open_out "BENCH_complexity.json" in
  output_string oc (Json.to_string json ^ "\n");
  close_out oc;
  Printf.printf "\nwrote BENCH_complexity.json (%s)\n"
    (if pass then "pass" else "FAIL");
  gate "E5 complexity" pass

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

(* ------------------------------------------------------------------ *)
(* E14 - observability overhead: the null-sink fast path must cost      *)
(* <2% of a full map+simulate sweep when the subsystem is disabled.     *)
(* ------------------------------------------------------------------ *)

let obs_overhead () =
  section "E14 obs_overhead (null-sink fast path cost)";
  let module Obs = Fpfa_obs.Obs in
  let reps = 10 in
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
    seconds run_corpus
  in
  let enabled_block () =
    Obs.enable ();
    Obs.reset ();
    seconds run_corpus
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
    seconds (fun () ->
        for _ = 1 to iters do
          Obs.span "e14" (fun () -> ())
        done)
    /. float_of_int iters *. 1e9
  in
  let ctr_ns =
    seconds (fun () ->
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
          let t = seconds (fun () -> Simplify.minimize ~validate:false g1) in
          plain_s := Float.min !plain_s t;
          let g2 = Cdfg.Graph.copy g in
          let n = ref 0 in
          let hook rule g touched =
            incr n;
            Verify.pass_hook () rule g touched
          in
          let t =
            seconds (fun () ->
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
(* costs - the timing bounds of the infrastructure claims: what the     *)
(* serve cache, the dependence analysis and the bit-level pass cost     *)
(* against the compile they serve. Each row keeps the workloads, timed  *)
(* regions, estimator, aggregate and limit of the experiment it comes   *)
(* from; the deterministic halves of those claims are tests, and        *)
(* EXPERIMENTS.md names them.                                           *)
(* ------------------------------------------------------------------ *)

(* Min over five reps of two regions timed alternately, [a] first. Each
   argument does its untimed set-up and returns its timed region's
   seconds. *)
let min_of_5 a b =
  let ta = ref infinity and tb = ref infinity in
  for _ = 1 to 5 do
    ta := Float.min !ta (a ());
    tb := Float.min !tb (b ())
  done;
  (!ta, !tb)

let pct part whole = part /. whole *. 100.0

(* E19: one cold pass of the corpus through a fresh caching daemon, then
   [warm_passes] passes of the same requests answered from its cache.
   Both timed passes parse each request and serialise each [result], as
   a client pays them; leaving the serialisation out would inflate the
   ratio several-fold. Returns ms per request cold and warm. *)
let warm_passes = 50

let serve_latency () =
  let module Serve = Fpfa_serve.Serve in
  let module Json = Fpfa_util.Json in
  let daemon = Serve.create ~cache_size:256 () in
  let pass () =
    List.map
      (fun (k : Kernels.t) ->
        let resp =
          Serve.handle daemon
            (Json.parse
               (Printf.sprintf {|{"op":"compile","kernel":"%s"}|}
                  k.Kernels.name))
        in
        match (Json.member "ok" resp, Json.member "result" resp) with
        | Some (Json.Bool true), Some v -> Json.to_string v
        | _ -> failwith ("serve request failed: " ^ Json.to_string resp))
      Kernels.all
  in
  let cold_s = seconds pass in
  let warm_s =
    seconds (fun () ->
        for _ = 1 to warm_passes do
          ignore (pass ())
        done)
  in
  Serve.shutdown daemon;
  let n = float_of_int (List.length Kernels.all) in
  (cold_s /. n *. 1e3, warm_s /. (n *. float_of_int warm_passes) *. 1e3)

(* E20: [Depend.analyze_source] against the full compile, summed over the
   corpus. The differential validator replays the unrolled flow and is
   not part of the bound. *)
let depend_cost () =
  let analysis_s, compile_s =
    List.fold_left
      (fun (sum_a, sum_c) (k : Kernels.t) ->
        let a, c =
          min_of_5
            (fun () ->
              seconds (fun () ->
                  Fpfa_analysis.Depend.analyze_source k.Kernels.source))
            (fun () -> seconds (fun () -> Flow.map_source k.Kernels.source))
        in
        (sum_a +. a, sum_c +. c))
      (0.0, 0.0) Kernels.all
  in
  pct analysis_s compile_s

(* E22: the bit-level stage as the flow pays it (facts, derivation and the
   certified apply, the verifier's independent fact recomputation
   included) on a copy of the bitopt-off graph, against the full compile
   with the stage on, summed over the corpus. *)
let bitopt_cost () =
  let module Bitopt = Transform.Bitopt in
  let off_config = { Flow.default_config with Flow.bitopt = false } in
  let stage g =
    let facts = Transform.Absdom.analyze g in
    let claims = Bitopt.derive (Transform.Absdom.value facts) g in
    if claims <> [] then
      ignore
        (Bitopt.apply
           ~verify:(fun g cs -> Fpfa_analysis.Verify.bits g cs)
           g claims)
  in
  let compile_s, stage_s =
    List.fold_left
      (fun (sum_c, sum_s) (k : Kernels.t) ->
        let off = Flow.map_source ~config:off_config k.Kernels.source in
        let c, s =
          min_of_5
            (fun () -> seconds (fun () -> Flow.map_source k.Kernels.source))
            (fun () ->
              let g = Cdfg.Graph.copy off.Flow.graph in
              seconds (fun () -> stage g))
        in
        (sum_c +. c, sum_s +. s))
      (0.0, 0.0) Kernels.all
  in
  pct stage_s compile_s

let costs () =
  section "costs (timing bounds of the infrastructure claims, min of 5)";
  let cold_ms, warm_ms = serve_latency () in
  let warm_x = cold_ms /. warm_ms in
  let depend = depend_cost () in
  let bitopt = bitopt_cost () in
  let corpus = Printf.sprintf "sum, %d kernels" (List.length Kernels.all) in
  (* (bound, aggregate, measured, limit, holds); every row is a gate *)
  let rows =
    [
      ( "E19 serve cold / warm",
        Printf.sprintf "per request, %d warm passes" warm_passes,
        Printf.sprintf "%.0fx (%.2f / %.4f ms)" warm_x cold_ms warm_ms,
        ">= 100x",
        warm_x >= 100.0 );
      ("E20 depend / compile", corpus, Printf.sprintf "%.1f%%" depend, "< 15%",
        depend < 15.0);
      ("E22 bitopt / compile", corpus, Printf.sprintf "%.1f%%" bitopt, "< 15%",
        bitopt < 15.0);
    ]
  in
  Fpfa_util.Tablefmt.print
    ~header:[ "bound"; "aggregate"; "measured"; "limit"; "verdict" ]
    (List.map
       (fun (name, agg, measured, limit, ok) ->
         [ name; agg; measured; limit; (if ok then "PASS" else "FAIL") ])
       rows);
  List.iter (fun (name, _, _, _, ok) -> gate name ok) rows

let experiments =
  [
    ("fig3", fig3_fir_cdfg);
    ("fig4", fig4_scheduling);
    ("fig5", fig5_allocation);
    ("resources", tile_resource_usage);
    ("complexity", phase_complexity);
    ("speedup", speedup);
    ("locality", locality_ablation);
    ("unroll", unroll_sweep);
    ("loops", loop_mapping);
    ("branches", branch_cost);
    ("interleave", interleaving);
    ("priority", priority_ablation);
    ("obs", obs_overhead);
    ("verify", verify_overhead);
    ("costs", costs);
  ]

let () =
  let names = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment: %s\nvalid names: %s\n"
      (String.concat ", " unknown)
      (String.concat " " (List.map fst experiments));
    exit 2);
  List.iter
    (fun (name, run) -> if names = [] || List.mem name names then run ())
    experiments;
  match List.rev !failed_gates with
  | [] -> Printf.printf "\nall experiments done; every gate holds.\n"
  | failed ->
    Printf.printf "\nFAILED gates: %s\n" (String.concat ", " failed);
    exit 1
