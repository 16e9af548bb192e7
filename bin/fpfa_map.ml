(* fpfa_map — command-line front end of the FPFA mapping flow.

   Subcommands:
     compile  map one or more C files (or named built-in kernels) and
              print the per-stage report, optionally the full per-cycle
              job; this is the default command
              (`fpfa_map fir --trace t.json`)
     dot      emit the minimised CDFG as Graphviz
     kernels  list the built-in kernel corpus
     suite    map every built-in kernel under a flow variant and print the
              metrics table
     sweep    map one kernel across a design-space grid (ALU count,
              crossbar lanes, move window)

   Batch subcommands (compile with several inputs, suite, sweep,
   check --all, pipeline) accept `-j N` and distribute the per-item
   mapping flow over N domains through Fpfa_exec.Pool; output is
   byte-identical to `-j 1`.

   `--trace FILE` (Chrome-trace JSON timeline) and `--stats` (counter and
   span report) hook the whole run into the lib/obs observability
   subsystem; both compose with compile and pipeline. *)

module Obs = Fpfa_obs.Obs
module Pool = Fpfa_exec.Pool

let obs_setup ~trace ~stats =
  if trace <> None || stats then begin
    (* Wall-clock time for real timelines; the library default (Sys.time)
       stays in force when observability is off. *)
    Obs.set_clock Unix.gettimeofday;
    Obs.enable_gc ();
    Obs.enable ()
  end

let obs_finish ~trace ~stats =
  (match trace with
  | Some path ->
    Obs.write_chrome_trace path;
    Printf.printf "wrote Chrome trace to %s (load in chrome://tracing)\n" path
  | None -> ());
  if stats then print_string (Obs.stats_report ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Kernel names may be abbreviated to a prefix ("fir" -> "fir-paper",
   {!Fpfa_kernels.Kernels.resolve}); an ambiguous prefix resolves to the
   first kernel in corpus order with a note on stderr. *)
let find_kernel ?(quiet = false) input =
  match Fpfa_kernels.Kernels.resolve input with
  | [] -> None
  | [ k ] -> Some k
  | k :: _ as matches ->
    if not quiet then
      Printf.eprintf "note: %s is ambiguous (%s); using %s\n" input
        (String.concat ", "
           (List.map
              (fun (k : Fpfa_kernels.Kernels.t) -> k.Fpfa_kernels.Kernels.name)
              matches))
        k.Fpfa_kernels.Kernels.name;
    Some k

let load_source input =
  if Sys.file_exists input then read_file input
  else
    match find_kernel input with
    | Some k -> k.Fpfa_kernels.Kernels.source
    | None ->
      Printf.eprintf "error: %s is neither a file nor a built-in kernel\n"
        input;
      exit 2

let variant_of_name name =
  match Baseline.find name with
  | Some v -> v
  | None ->
    Printf.eprintf "error: unknown variant %s (try: %s)\n" name
      (String.concat ", "
         (List.map
            (fun (v : Baseline.variant) -> v.Baseline.vname)
            Baseline.all));
    exit 2

let inputs_for input =
  if Sys.file_exists input then []
  else
    match find_kernel ~quiet:true input with
    | Some k -> k.Fpfa_kernels.Kernels.inputs
    | None -> []

open Cmdliner

let input_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT" ~doc:"C source file or built-in kernel name.")

let inputs_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"INPUT"
        ~doc:"C source files or built-in kernel names (one or more).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Distribute batch work over N domains (default 1: sequential; \
           0: one per core). Output is byte-identical to -j 1.")

let resolve_jobs j = if j <= 0 then Pool.default_jobs () else j

let variant_arg =
  Arg.(
    value & opt string "paper"
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:"Flow variant: paper, sequential, unit-ops, sarkar, no-locality, \
              forwarding.")

let func_arg =
  Arg.(
    value & opt string "main"
    & info [ "func" ] ~docv:"FUNC" ~doc:"Function to map.")

let show_job_arg =
  Arg.(value & flag & info [ "job" ] ~doc:"Print the full per-cycle job.")

let show_schedule_arg =
  Arg.(value & flag & info [ "schedule" ] ~doc:"Print the level schedule.")

let show_gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print the per-PP timeline.")

let check_width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "check-width" ] ~docv:"BITS"
        ~doc:
          "Report the values the bit analysis cannot prove fit a signed \
           BITS-bit datapath (the FPFA is 16-bit), assuming BITS-bit \
           region inputs.")

let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record every flow stage, transform pass and simulator cycle as a \
           Chrome-trace JSON timeline in FILE (open in chrome://tracing or \
           ui.perfetto.dev).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observability report after the run: rule firing \
           counts, queue depths, allocator and simulator tallies, and \
           per-stage time.")

let compile inputs variant func show_job show_schedule show_gantt check_width
    obs_trace obs_stats jobs =
  obs_setup ~trace:obs_trace ~stats:obs_stats;
  let finish () = obs_finish ~trace:obs_trace ~stats:obs_stats in
  let v = variant_of_name variant in
  let targets = List.map (fun input -> (input, load_source input)) inputs in
  let jobs = resolve_jobs jobs in
  (* Workers only map and verify; every print below runs on the main
     domain, in input order, so -j N output matches -j 1. *)
  (* The interpreter runs [main]; another mapped function is checked
     against the evaluator only. *)
  let with_interp = String.equal func "main" in
  let compile_one (input, source) =
    match Baseline.map_source v ~func source with
    | result ->
      let memory_init = inputs_for input in
      let ok =
        Fpfa_core.Flow.verify ~memory_init result
        && ((not with_interp)
           || Fpfa_core.Flow.conforms_to_interp ~memory_init result)
      in
      Ok (result, ok)
    | exception Fpfa_core.Flow.Flow_error msg -> Error msg
  in
  (* One domain per input at most: a compile runs on one domain. *)
  let outcomes =
    Pool.map_ordered ~jobs:(min jobs (List.length targets)) compile_one targets
  in
  let many = List.length targets > 1 in
  let failed = ref false in
  List.iter2
    (fun (input, _) outcome ->
      if many then Format.printf "=== %s ===@." input;
      match outcome with
      | Error msg ->
        Printf.eprintf "flow error: %s\n" msg;
        failed := true
      | Ok (result, ok) ->
        Format.printf "%a@." Fpfa_core.Flow.pp_summary result;
        Format.printf "simplification:@.%a@." Transform.Simplify.pp_report
          result.Fpfa_core.Flow.simplify_report;
        if show_schedule then
          Format.printf "schedule:@.%a@." Mapping.Sched.pp
            result.Fpfa_core.Flow.schedule;
        if show_job then
          Format.printf "%a@." Mapping.Job.pp result.Fpfa_core.Flow.job;
        if show_gantt then
          Format.printf "%a@." Mapping.Job.pp_gantt result.Fpfa_core.Flow.job;
        (match check_width with
        | Some width ->
          (* the bit analysis' datapath-width lint, at [width] *)
          let g = result.Fpfa_core.Flow.graph in
          let facts = Fpfa_analysis.Bits.analyze ~width g in
          let over =
            List.filter
              (fun d ->
                String.equal d.Fpfa_diag.Diag.rule "bits.widening-overflow")
              (Fpfa_analysis.Bits.diagnostics ~width ~facts g)
          in
          Format.printf "%d-bit datapath check (%d iteration(s)): %s@." width
            (Fpfa_analysis.Bits.iterations facts)
            (match List.length over with
            | 0 -> "all values fit"
            | n -> Printf.sprintf "%d value(s) may exceed it" n);
          List.iter (fun d -> Format.printf "  %a@." Fpfa_diag.Diag.pp d) over
        | None -> ());
        Format.printf "verification (%s): %s@."
          (if with_interp then "interp = eval = simulator"
           else "eval = simulator")
          (if ok then "PASS" else "FAIL");
        if not ok then failed := true)
    targets outcomes;
  finish ();
  if !failed then exit 1

let compile_term =
  Term.(
    const compile $ inputs_arg $ variant_arg $ func_arg $ show_job_arg
    $ show_schedule_arg $ show_gantt_arg $ check_width_arg $ obs_trace_arg
    $ stats_arg $ jobs_arg)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Map one or more C programs onto one FPFA tile.")
    compile_term

let dot input func out show_clusters =
  let source = load_source input in
  match Fpfa_core.Flow.map_source ~func source with
  | result -> (
    let text =
      if show_clusters then
        Mapping.Cluster.to_dot result.Fpfa_core.Flow.clustering
      else Cdfg.Dot.to_string result.Fpfa_core.Flow.graph
    in
    match out with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text)
    | None -> print_string text)
  | exception Fpfa_core.Flow.Flow_error msg ->
    Printf.eprintf "flow error: %s\n" msg;
    exit 1

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT to FILE.")

let clusters_arg =
  Arg.(
    value & flag
    & info [ "clusters" ]
        ~doc:"Emit the cluster dependence DAG instead of the CDFG.")

let dot_cmd =
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit the minimised CDFG (or, with --clusters, the cluster DAG) \
             as Graphviz.")
    Term.(const dot $ input_arg $ func_arg $ out_arg $ clusters_arg)

let kernels () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      Printf.printf "%-14s %s\n" k.Fpfa_kernels.Kernels.name
        k.Fpfa_kernels.Kernels.description)
    Fpfa_kernels.Kernels.all

let kernels_cmd =
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the built-in kernel corpus.")
    Term.(const kernels $ const ())

let suite variant jobs =
  let v = variant_of_name variant in
  let rows =
    Pool.map_ordered ~jobs:(resolve_jobs jobs)
      (fun (k : Fpfa_kernels.Kernels.t) ->
        let result =
          Baseline.map_source v k.Fpfa_kernels.Kernels.source
        in
        Mapping.Metrics.row ~name:k.Fpfa_kernels.Kernels.name
          result.Fpfa_core.Flow.metrics)
      Fpfa_kernels.Kernels.all
  in
  Fpfa_util.Tablefmt.print ~header:Mapping.Metrics.header rows

let suite_cmd =
  Cmd.v
    (Cmd.info "suite" ~doc:"Map the whole kernel corpus; print metrics.")
    Term.(const suite $ variant_arg $ jobs_arg)

(* {2 sweep — design-space grids over the tile parameters} *)

module Sweep = Fpfa_core.Sweep

let values_arg name doc =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ name ] ~docv:"N,N,..." ~doc)

let alus_arg = values_arg "alus" "ALU counts to sweep."
let buses_arg = values_arg "buses" "Crossbar lane counts to sweep."
let windows_arg = values_arg "windows" "Move-window depths to sweep."

let sweep_verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Verify every point against the reference interpreter; any \
              FAIL exits non-zero.")

let sweep_json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the rows as a JSON array.")

let sweep input func alus buses windows verify json jobs obs_trace obs_stats =
  obs_setup ~trace:obs_trace ~stats:obs_stats;
  let finish () = obs_finish ~trace:obs_trace ~stats:obs_stats in
  let source = load_source input in
  let points =
    match (alus, buses, windows) with
    | None, None, None -> Sweep.default_points ()
    | _ ->
      let expand axis = function
        | Some values -> Sweep.points axis values
        | None -> []
      in
      expand Sweep.Alu_count alus
      @ expand Sweep.Buses buses
      @ expand Sweep.Move_window windows
  in
  let jobs = resolve_jobs jobs in
  let memory_init = inputs_for input in
  let run pool =
    Sweep.run ?pool ~func ~verify ~memory_init ~source points
  in
  match
    if jobs <= 1 then run None
    else Pool.with_pool ~jobs (fun pool -> run (Some pool))
  with
  | rows ->
    let cell_strings (r : Sweep.row) =
      let m = r.Sweep.metrics in
      [
        Sweep.axis_name r.Sweep.point.Sweep.axis;
        string_of_int r.Sweep.point.Sweep.value;
        string_of_int m.Mapping.Metrics.cycles;
        string_of_int m.Mapping.Metrics.levels;
        string_of_int m.Mapping.Metrics.moves;
        string_of_int m.Mapping.Metrics.inserted_cycles;
        Printf.sprintf "%.2f" m.Mapping.Metrics.alu_utilisation;
        Printf.sprintf "%.1f" m.Mapping.Metrics.energy;
      ]
      @
      if verify then
        [
          (match r.Sweep.verified with
          | Some true -> "PASS"
          | Some false -> "FAIL"
          | None -> "-");
        ]
      else []
    in
    if json then begin
      let objects =
        List.map
          (fun (r : Sweep.row) ->
            let m = r.Sweep.metrics in
            Printf.sprintf
              "{\"axis\": \"%s\", \"value\": %d, \"cycles\": %d, \
               \"levels\": %d, \"moves\": %d, \"stalls\": %d, \
               \"utilisation\": %.4f, \"energy\": %.2f%s}"
              (Sweep.axis_name r.Sweep.point.Sweep.axis)
              r.Sweep.point.Sweep.value m.Mapping.Metrics.cycles
              m.Mapping.Metrics.levels m.Mapping.Metrics.moves
              m.Mapping.Metrics.inserted_cycles
              m.Mapping.Metrics.alu_utilisation m.Mapping.Metrics.energy
              (match r.Sweep.verified with
              | Some ok -> Printf.sprintf ", \"verified\": %b" ok
              | None -> ""))
          rows
      in
      print_string ("[" ^ String.concat ", " objects ^ "]\n")
    end
    else begin
      let header =
        [ "axis"; "value"; "cycles"; "levels"; "moves"; "stalls"; "util";
          "energy" ]
        @ if verify then [ "verify" ] else []
      in
      Fpfa_util.Tablefmt.print ~header (List.map cell_strings rows)
    end;
    finish ();
    if
      verify
      && List.exists (fun r -> r.Sweep.verified = Some false) rows
    then exit 1
  | exception Sweep.Sweep_error msg ->
    Printf.eprintf "sweep error: %s\n" msg;
    finish ();
    exit 1

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Map one kernel across a design-space grid (ALU count, crossbar \
          lanes, move window); defaults to the classic three-axis study.")
    Term.(
      const sweep $ input_arg $ func_arg $ alus_arg $ buses_arg
      $ windows_arg $ sweep_verify_arg $ sweep_json_arg $ jobs_arg
      $ obs_trace_arg $ stats_arg)

let encode input func out =
  let source = load_source input in
  match Fpfa_core.Flow.map_source ~func source with
  | result ->
    let job = result.Fpfa_core.Flow.job in
    Mapping.Encode.to_file job out;
    Format.printf "%a -> %s@." Mapping.Encode.pp_summary job out
  | exception Fpfa_core.Flow.Flow_error msg ->
    Printf.eprintf "flow error: %s\n" msg;
    exit 1

let out_required_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Configuration image path.")

let encode_cmd =
  Cmd.v
    (Cmd.info "encode" ~doc:"Map a program and write the tile configuration image.")
    Term.(const encode $ input_arg $ func_arg $ out_required_arg)

let run_config path show_trace =
  match Mapping.Encode.of_file path with
  | job ->
    Format.printf "%a@." Mapping.Encode.pp_summary job;
    let trace_out = if show_trace then Some Format.std_formatter else None in
    let memory, trace = Fpfa_sim.Sim.run ?trace_out job in
    List.iter
      (fun (region, contents) ->
        Format.printf "%s = [%s]@." region
          (String.concat "; "
             (Array.to_list (Array.map string_of_int contents))))
      memory;
    Format.printf "ran %d cycles (%d moves, %d writes)@."
      trace.Fpfa_sim.Sim.cycles_run trace.Fpfa_sim.Sim.moves_executed
      trace.Fpfa_sim.Sim.writes_executed
  | exception Mapping.Encode.Corrupt msg ->
    Printf.eprintf "corrupt configuration: %s\n" msg;
    exit 1

let config_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CONFIG" ~doc:"Configuration image produced by encode.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print every move/ALU/write-back event.")

let run_config_cmd =
  Cmd.v
    (Cmd.info "run-config"
       ~doc:"Load a configuration image and execute it on the simulated tile \
             (zero-initialised inputs).")
    Term.(const run_config $ config_path_arg $ trace_arg)

let pipeline input stages reuse jobs obs_trace obs_stats =
  obs_setup ~trace:obs_trace ~stats:obs_stats;
  let finish () = obs_finish ~trace:obs_trace ~stats:obs_stats in
  let source = load_source input in
  let funcs = String.split_on_char ',' stages in
  let jobs = resolve_jobs jobs in
  let with_pool f =
    if jobs <= 1 then f None
    else Pool.with_pool ~jobs (fun pool -> f (Some pool))
  in
  match
    with_pool @@ fun pool ->
    if reuse then begin
      let p = Fpfa_core.Pipeline.map_reuse ?pool source ~funcs in
      Format.printf "%a@." Fpfa_core.Pipeline.pp_reuse p;
      Fpfa_core.Pipeline.verify_reuse ?pool source ~funcs
    end
    else begin
      let p = Fpfa_core.Pipeline.map ?pool source ~funcs in
      Format.printf "%a@." Fpfa_core.Pipeline.pp p;
      Fpfa_core.Pipeline.verify ?pool source ~funcs
    end
  with
  | ok ->
    Format.printf "verification: %s@." (if ok then "PASS" else "FAIL");
    finish ();
    if not ok then exit 1
  | exception Fpfa_core.Pipeline.Pipeline_error msg ->
    Printf.eprintf "pipeline error: %s\n" msg;
    finish ();
    exit 1
  | exception Fpfa_core.Loop_flow.Loop_error msg ->
    Printf.eprintf "pipeline error: %s\n" msg;
    finish ();
    exit 1

let stages_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "stages" ] ~docv:"F1,F2,..."
        ~doc:"Comma-separated function names, one tile configuration each.")

let reuse_arg =
  Arg.(
    value & flag
    & info [ "reuse" ]
        ~doc:"Map each stage with loop-configuration reuse (one body \
              configuration per counted loop).")

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Map a multi-kernel application as successive configurations.")
    Term.(
      const pipeline $ input_arg $ stages_arg $ reuse_arg $ jobs_arg
      $ obs_trace_arg $ stats_arg)

let loop input func =
  let source = load_source input in
  match Fpfa_core.Loop_flow.map_source ~func source with
  | outcome ->
    Format.printf "%a@." Fpfa_core.Loop_flow.pp_outcome outcome;
    (match Fpfa_core.Loop_flow.compare_costs ~func source with
    | Some c ->
      Format.printf
        "configuration: %d words looped vs %d unrolled (%.1fx smaller)@."
        c.Fpfa_core.Loop_flow.looped_config_words
        c.Fpfa_core.Loop_flow.unrolled_config_words
        (float_of_int c.Fpfa_core.Loop_flow.unrolled_config_words
        /. float_of_int c.Fpfa_core.Loop_flow.looped_config_words);
      Format.printf "cycles: %d looped vs %d unrolled@."
        c.Fpfa_core.Loop_flow.looped_cycles
        c.Fpfa_core.Loop_flow.unrolled_cycles
    | None -> ());
    let memory_init = inputs_for input in
    let ok = Fpfa_core.Loop_flow.verify ~memory_init source ~func outcome in
    Format.printf "verification: %s@." (if ok then "PASS" else "FAIL");
    if not ok then exit 1
  | exception Fpfa_core.Loop_flow.Loop_error msg ->
    Printf.eprintf "loop flow error: %s\n" msg;
    exit 1

let loop_cmd =
  Cmd.v
    (Cmd.info "loop"
       ~doc:"Map a counted loop by configuration reuse (one body \
             configuration + iteration strides) instead of full unrolling.")
    Term.(const loop $ input_arg $ func_arg)

let simplify input func =
  let source = load_source input in
  match Cdfg.Builder.build_program ~func source with
  | g ->
    let describe label =
      let s = Cdfg.Graph.stats g in
      [
        label;
        string_of_int s.Cdfg.Graph.total;
        string_of_int s.Cdfg.Graph.fetches;
        string_of_int s.Cdfg.Graph.stores;
        string_of_int (s.Cdfg.Graph.multiplies + s.Cdfg.Graph.adds
                       + s.Cdfg.Graph.other_alu);
        string_of_int s.Cdfg.Graph.muxes;
        string_of_int s.Cdfg.Graph.critical_path;
      ]
    in
    let generated = describe "generated" in
    (* one counted run: each default rule's pass.fire.<rule> tally *)
    Obs.reset ();
    Obs.enable ();
    let fired =
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          Obs.reset ())
        (fun () ->
          ignore (Transform.Simplify.minimize g);
          List.map
            (fun (r : Transform.Pass.rule) ->
              let name = r.Transform.Pass.rname in
              [
                name;
                string_of_int
                  (Option.value ~default:0
                     (Obs.find_counter ("pass.fire." ^ name)));
              ])
            Transform.Simplify.default_rules)
    in
    Fpfa_util.Tablefmt.print
      ~header:[ "graph"; "nodes"; "FE"; "ST"; "alu"; "mux"; "cp" ]
      [ generated; describe "minimised" ];
    print_newline ();
    Fpfa_util.Tablefmt.print ~header:[ "rule"; "fired" ] fired
  | exception e ->
    Printf.eprintf "error: %s\n" (Printexc.to_string e);
    exit 1

let simplify_cmd =
  Cmd.v
    (Cmd.info "simplify"
       ~doc:"Show the graph before and after minimisation (paper Fig. 3) \
             and how often each simplifier rule fired.")
    Term.(const simplify $ input_arg $ func_arg)

(* {2 serve — the compile-as-a-service daemon} *)

let serve socket cache_size cache_dir cache_disk_max observe obs_stats jobs =
  if observe || obs_stats then begin
    Obs.set_clock Unix.gettimeofday;
    Obs.enable ()
  end;
  let server =
    Fpfa_serve.Serve.create ~jobs:(resolve_jobs jobs) ~cache_size ?cache_dir
      ?cache_disk_max ~observe ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fpfa_serve.Serve.shutdown server;
      (* --stats: the daemon-lifetime counter report (serve.l1,
         serve.program and serve.l2 cache tallies, per-stage spans) on
         exit *)
      if obs_stats then print_string (Obs.stats_report ()))
    (fun () ->
      match socket with
      | Some path ->
        Printf.eprintf "fpfa_map serve: listening on %s\n%!" path;
        Fpfa_serve.Serve.serve_socket server ~path
      | None -> Fpfa_serve.Serve.serve_channel server stdin stdout)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix domain socket at PATH instead of stdin/stdout \
           (an existing socket file is replaced; removed on exit).")

let cache_size_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Entries per cache level (request, program index and mapping). \
           0 disables caching.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist computed mapping payloads as JSON files under DIR \
           (created if missing), surviving restarts.")

let cache_disk_max_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-disk-max" ] ~docv:"BYTES"
        ~doc:
          "Bound the on-disk store at BYTES: entry files are \
           least-recently-used-swept (reads refresh recency) at startup \
           and after every write. Requires $(b,--cache-dir).")

let observe_arg =
  Arg.(
    value & flag
    & info [ "observe" ]
        ~doc:
          "Enable the observability subsystem; the stats operation then \
           reports drained counters and per-stage span aggregates.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the mapping flow as a persistent daemon: newline-delimited \
          JSON requests (compile/check/sweep/stats/cache) on stdin or a \
          Unix socket, answered through a content-addressed mapping cache.")
    Term.(
      const serve $ socket_arg $ cache_size_arg $ cache_dir_arg
      $ cache_disk_max_arg $ observe_arg $ stats_arg $ jobs_arg)

(* {2 check — the static verifier / lint front end} *)

module Diag = Fpfa_diag.Diag

(* All diagnostics for one program, via Fpfa_core.Flow.audit (structural
   verifier on raw and minimised graphs, mappability + statespace
   legality + lints, mapping validators; one shared Absdom fixpoint,
   whose bit facts --bits reports). With ?pool the diagnostic families
   run on the pool's domains. *)
let check_one ?pool ~config ~bits source ~func =
  match Fpfa_core.Flow.map_source ~config ~func source with
  | result ->
    let diags, facts = Fpfa_core.Flow.audit ?pool ~config result in
    let bits_out =
      match facts with
      | Some (_, t) when bits ->
        Some
          ( t,
            result.Fpfa_core.Flow.graph,
            result.Fpfa_core.Flow.bitopt_report )
      | _ -> None
    in
    ( diags,
      Option.map (fun (addr, _) -> Fpfa_analysis.Addr.facts_to_json addr) facts,
      bits_out )
  | exception Fpfa_core.Flow.Flow_error msg ->
    ([ Diag.error "flow.error" "%s" msg ], None, None)

let bitopt_report_json (r : Transform.Bitopt.report) =
  let module Json = Fpfa_util.Json in
  Json.Obj
    [
      ("folds", Json.Int r.Transform.Bitopt.folds);
      ("redirects", Json.Int r.Transform.Bitopt.redirects);
      ("demotes", Json.Int r.Transform.Bitopt.demotes);
      ("rounds", Json.Int r.Transform.Bitopt.rounds);
    ]

let check input func json verify_each no_lint loops bits all jobs obs_trace
    obs_stats =
  obs_setup ~trace:obs_trace ~stats:obs_stats;
  let targets =
    if all then
      List.map
        (fun (k : Fpfa_kernels.Kernels.t) ->
          (k.Fpfa_kernels.Kernels.name, k.Fpfa_kernels.Kernels.source, "main"))
        Fpfa_kernels.Kernels.all
    else
      match input with
      | Some input -> [ (input, load_source input, func) ]
      | None ->
        Printf.eprintf "error: check needs an INPUT (or --all)\n";
        exit 2
  in
  let config =
    { Fpfa_core.Flow.default_config with Fpfa_core.Flow.verify_each }
  in
  let jobs = resolve_jobs jobs in
  let process ?pool (name, source, func) =
    let diags, facts, bits_out = check_one ?pool ~config ~bits source ~func in
    let loop_out =
      (* The dependence report with its differential validation. Front-end
         failures are already surfaced as flow.error by check_one. *)
      if not loops then None
      else
        match
          Fpfa_analysis.Depend.analyze_source
            ~tile:config.Fpfa_core.Flow.tile
            ~max_iterations:config.Fpfa_core.Flow.max_unroll ~func source
        with
        | report ->
          Some
            ( report,
              Fpfa_analysis.Depend.validate
                ~max_iterations:config.Fpfa_core.Flow.max_unroll report )
        | exception _ -> None
    in
    let diags =
      (* The audit already carries the Depend analysis family; only the
         validator's refutations are new — and they must fail the run. *)
      match loop_out with
      | Some (report, validation)
        when validation.Fpfa_analysis.Depend.refuted <> [] ->
        Diag.sort
          (diags
          @ List.filter
              (fun d ->
                String.equal d.Diag.rule Fpfa_analysis.Depend.rule_refuted)
              (Fpfa_analysis.Depend.diagnostics ~validation report))
      | _ -> diags
    in
    let diags =
      if no_lint then
        List.filter
          (fun d ->
            not
              (String.length d.Diag.rule >= 5
              && String.equal (String.sub d.Diag.rule 0 5) "lint."))
          diags
      else diags
    in
    (name, diags, facts, loop_out, bits_out)
  in
  let checked =
    match targets with
    | [ one ] when jobs > 1 ->
      (* One target: run the diagnostic families on the pool instead of a
         one-item batch. *)
      Pool.with_pool ~jobs (fun pool -> [ process ~pool one ])
    | _ -> Pool.map_ordered ~jobs (fun t -> process t) targets
  in
  if json then begin
    (* Built as a Fpfa_util.Json value and emitted through its
       deterministic printer: field order is fixed by construction, so
       golden tests and serve-cache keys never churn on it. *)
    let module Json = Fpfa_util.Json in
    let objects =
      List.map
        (fun (name, diags, facts, loop_out, bits_out) ->
          let suppressed =
            List.length
              (List.filter
                 (fun d -> String.equal d.Diag.rule "lint.suppressed")
                 diags)
          in
          Json.Obj
            ([
               ("input", Json.Str name);
               ("diagnostics", Json.parse (Diag.list_to_json diags));
               ( "summary",
                 Json.Obj
                   [
                     ("errors", Json.Int (Diag.count Diag.Error diags));
                     ("warnings", Json.Int (Diag.count Diag.Warning diags));
                     ("infos", Json.Int (Diag.count Diag.Info diags));
                     ("suppressed", Json.Int suppressed);
                   ] );
               ( "address_facts",
                 match facts with Some j -> Json.parse j | None -> Json.Null
               );
             ]
            @ (match loop_out with
              | Some (report, validation) ->
                [
                  ( "loops",
                    Fpfa_analysis.Depend.report_to_json ~validation report );
                ]
              | None -> [])
            @
            match bits_out with
            | Some (t, graph, report) ->
              [
                ( "bits",
                  Json.Obj
                    [
                      ( "iterations",
                        Json.Int (Fpfa_analysis.Bits.iterations t) );
                      ("rewrites", bitopt_report_json report);
                      ("facts", Fpfa_analysis.Bits.facts_to_json t graph);
                    ] );
              ]
            | None -> []))
        checked
    in
    print_string (Json.to_string (Json.List objects) ^ "\n")
  end
  else
    List.iter
      (fun (name, diags, _, loop_out, bits_out) ->
        let errors = Diag.count Diag.Error diags in
        let warnings = Diag.count Diag.Warning diags in
        if diags = [] then Printf.printf "%s: clean\n" name
        else begin
          Printf.printf "%s: %d error%s, %d warning%s\n" name errors
            (if errors = 1 then "" else "s")
            warnings
            (if warnings = 1 then "" else "s");
          List.iter (fun d -> Format.printf "  %a@." Diag.pp d) diags
        end;
        (match loop_out with
        | Some (report, validation) ->
          Format.printf "%a" Fpfa_analysis.Depend.pp_report report;
          Printf.printf
            "  validator: %d loop(s) checked, %d unchecked, %d refuted, %d \
             collision(s) examined\n"
            validation.Fpfa_analysis.Depend.checked
            (List.length validation.Fpfa_analysis.Depend.unchecked)
            (List.length validation.Fpfa_analysis.Depend.refuted)
            validation.Fpfa_analysis.Depend.pairs
        | None -> ());
        match bits_out with
        | Some (t, graph, report) ->
          let total = ref 0 and known = ref 0 and consts = ref 0 in
          Cdfg.Graph.iter graph (fun n ->
              incr total;
              let v = Fpfa_analysis.Bits.value t n.Cdfg.Graph.id in
              if Transform.Absdom.bits_known v.Transform.Absdom.bits <> 0 then
                incr known;
              if Transform.Absdom.is_const v <> None then incr consts);
          Printf.printf
            "  bits: %d value(s), %d with known bits, %d constant; pass: %s\n"
            !total !known !consts
            (Format.asprintf "%a" Transform.Bitopt.pp_report report)
        | None -> ())
      checked;
  obs_finish ~trace:obs_trace ~stats:obs_stats;
  if List.exists (fun (_, diags, _, _, _) -> Diag.has_errors diags) checked
  then exit 1

let check_input_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"INPUT"
        ~doc:"C source file or built-in kernel name (omit with --all).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit diagnostics as a JSON array instead of human-readable \
              text.")

let verify_each_arg =
  Arg.(
    value & flag
    & info [ "verify-each-pass" ]
        ~doc:"Run the structural verifier after every simplification rule \
              firing; an invariant-breaking rule fails the flow naming the \
              rule.")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ] ~doc:"Drop lint.* findings, keep verifier rules.")

let loops_arg =
  Arg.(
    value & flag
    & info [ "loops" ]
        ~doc:
          "Analyse loop-carried dependences on the pre-unroll loops: \
           per-loop II lower bounds (RecMII/ResMII), recurrence cycles and \
           ranked pipelinability blockers, cross-checked against the \
           fully-unrolled CDFG by the differential validator (a refutation \
           is an error).")

let bits_arg =
  Arg.(
    value & flag
    & info [ "bits" ]
        ~doc:
          "Report the known-bits x range facts of the minimised graph \
           (per-value known/demanded masks and intervals, plus the \
           certified bit-level pass's rewrite tally). With --json the \
           facts land in a \"bits\" object.")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Check every built-in kernel instead of INPUT.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the CDFG verifier, the dataflow lints and the mapping \
          validators over a program; non-zero exit on any error-severity \
          diagnostic.")
    Term.(
      const check $ check_input_arg $ func_arg $ json_arg $ verify_each_arg
      $ no_lint_arg $ loops_arg $ bits_arg $ all_arg $ jobs_arg
      $ obs_trace_arg $ stats_arg)

let () =
  let info =
    Cmd.info "fpfa_map" ~version:"1.0.0"
      ~doc:"Map C programs onto an FPFA processor tile (DATE'03 flow)."
  in
  (* compile is the default command: `fpfa_map fir --trace t.json` works
     without spelling out the subcommand. Cmdliner's ~default only kicks in
     when the first argument is an option, so a leading positional that is
     not a (prefix of a) subcommand name gets an explicit "compile"
     injected in front of it. *)
  let command_names =
    [
      "compile"; "dot"; "kernels"; "suite"; "sweep"; "encode"; "run-config";
      "pipeline"; "loop"; "simplify"; "check"; "serve";
    ]
  in
  let argv =
    let argv = Sys.argv in
    if
      Array.length argv > 1
      && String.length argv.(1) > 0
      && argv.(1).[0] <> '-'
      && not
           (List.exists
              (fun name ->
                String.length argv.(1) <= String.length name
                && String.equal argv.(1)
                     (String.sub name 0 (String.length argv.(1))))
              command_names)
    then
      Array.append [| argv.(0); "compile" |]
        (Array.sub argv 1 (Array.length argv - 1))
    else argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default:compile_term info
          [
            compile_cmd; dot_cmd; kernels_cmd; suite_cmd; sweep_cmd;
            encode_cmd; run_config_cmd; pipeline_cmd; loop_cmd; simplify_cmd;
            check_cmd; serve_cmd;
          ]))
