(* The FPFA flow benchmark: four workloads, end-to-end metrics checked
   against independent references, and a traced per-layer breakdown.
   See README.md in this directory. *)

module Json = Fpfa_util.Json
module W = Workloads

let usage =
  {|usage:
  main.exe [--seed N] [--seconds S] [--out FILE]
      every workload as 3 interleaved segments of S seconds (default 10),
      each in a fresh child process; each metric is the median of its
      3 segment values
  main.exe --trace [--seed N] [--seconds S] [--trace-out FILE] [--out FILE]
      one traced segment per workload: the per-layer table
  main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
      one segment of one workload; the last line of standard output is
      {"correct", "attempted", "failed", "metrics"}
  main.exe --compare OLD.json NEW.json
      (run from the repository root: the bounds come from BENCHMARK.json)
  main.exe --smoke BENCHMARK.json
  main.exe --make-pool FILE
|}

let setup_reps = 3
let rounds = 3
let groups = 4

let peak_rss_mb () =
  let from_status =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
    | lines -> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id) lines
    | exception Sys_error _ -> None
  in
  match from_status with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type run = {
  workload : string;
  digest : string;
  attempted : int;
  failed : int;
  traced : bool;
  rows : (string * float * string) list;  (** name, value, unit *)
}

let latencies passes = Array.concat (Array.to_list (Array.map (Array.map snd) passes))

(* Set-up is timed before and after the timed loop: the host's speed
   drifts over a run, and a slow spell at process start alone should not
   decide [setup_s]. *)
let time_setups (inst : W.instance) =
  List.init setup_reps (fun _ ->
      let t0 = W.cpu_now () in
      inst.W.setup ();
      W.cpu_now () -. t0)

let e2e_rows (inst : W.instance) ~seconds =
  let setups_before = time_setups inst in
  let seg = inst.W.measure ~seconds ~on_unit:ignore in
  let rss = peak_rss_mb () in
  let failed = seg.W.failed + inst.W.check () in
  let q = inst.W.qor () in
  let setups = Array.of_list (setups_before @ time_setups inst) in
  (* Timings are taken per contiguous group of passes and reported as the
     median over the groups: a slow spell of the host that covers less
     than half the run leaves them unchanged. *)
  let passes = seg.W.passes in
  let n = Array.length passes in
  let g = min groups n in
  let parts = Array.init g (fun k -> Array.sub passes (k * n / g) (((k + 1) * n / g) - (k * n / g))) in
  let per_group f = Stats.median (Array.map f parts) in
  let value name =
    match name with
    | "setup_s" -> Stats.median setups
    | "pass_ms" -> per_group inst.W.pass_ms
    | "latency_ms_p50" -> per_group (fun part -> Stats.quantile 0.5 (latencies part))
    | "latency_ms_p90" -> per_group (fun part -> Stats.quantile 0.9 (latencies part))
    | "ops_per_s" ->
      per_group (fun part ->
          let lat = latencies part in
          float_of_int (Array.length lat) /. (Stats.sum lat /. 1e3))
    | "peak_rss_mb" -> rss
    | "tile_cycles" -> float_of_int q.W.cycles
    | "stall_cycles" -> float_of_int (q.W.cycles - q.W.exec)
    | "alu_util" -> float_of_int q.W.firings /. float_of_int q.W.slots
    | "energy" -> q.W.energy
    | other -> invalid_arg other
  in
  ( seg.W.attempted,
    failed,
    List.map (fun (name, unit, _) -> (name, value name, unit)) Spec.end_to_end
    @ [
        (* printed, not in BENCHMARK.json: p99 has fewer than ten samples
           beyond it on large and remap, and fail_frac reads 0 *)
        ("latency_ms_p99", Stats.quantile 0.99 (latencies passes), "ms");
        ("fail_frac", float_of_int failed /. float_of_int seg.W.attempted, "ratio");
      ] )

(* The first half of the segment runs untraced, the second traced: the
   difference in pass time between the two is the tracing overhead. *)
let layer_rows (inst : W.instance) ~seconds ~trace_out =
  inst.W.setup ();
  let plain = inst.W.measure ~seconds:(seconds /. 2.0) ~on_unit:ignore in
  let layers = Layers.start ~trace_out in
  let seg = inst.W.measure ~seconds:(seconds /. 2.0) ~on_unit:(fun () -> Layers.drain layers) in
  Layers.stop ();
  let failed = plain.W.failed + seg.W.failed + inst.W.check () in
  let units = float_of_int seg.W.layer_units in
  let busy_ms = Stats.sum (latencies seg.W.passes) in
  let layer l =
    let ms = Layers.ms layers l in
    [
      (l ^ ".ms", ms /. units, "ms");
      (l ^ ".pct", 100.0 *. ms /. busy_ms, "%");
      (l ^ ".minor_mw", Layers.minor_mw layers l /. units, "Mword");
    ]
  in
  let count name = Layers.counter layers name /. units in
  let counts names = List.map (fun n -> (n, count n, "count")) names in
  let steps = count "pass.steps" in
  let rows =
    List.concat_map layer (Spec.bench_layers @ Spec.library_layers @ [ "serve.request" ])
    @ counts [ "pass.steps"; "pass.rewrites"; "pass.enqueues" ]
    @ [ ("pass.useful_ratio", (if steps = 0.0 then 0.0 else count "pass.rewrites" /. steps), "ratio") ]
    @ counts (List.map (fun r -> "pass.fire." ^ r) Spec.rules)
    @ [
        ( "bitopt.rewrites",
          count "bitopt.fold" +. count "bitopt.redirect" +. count "bitopt.demote",
          "count" );
      ]
    @ counts
        [
          "disambig.removed"; "cluster.clusters"; "sched.levels_inserted"; "sched.displacements";
          "alloc.moves"; "alloc.inserted_cycles"; "alloc.level_retries"; "sim.cycles";
        ]
    @ seg.W.extra
    @ [
        ("gc.minor_mw", count "gc.minor_words" /. 1e6, "Mword");
        ("gc.major_mw", count "gc.major_words" /. 1e6, "Mword");
        ( "trace.overhead_pct",
          100.0 *. ((inst.W.pass_ms seg.W.passes /. inst.W.pass_ms plain.W.passes) -. 1.0),
          "%" );
        ( "trace.stage_coverage_pct",
          List.fold_left (fun acc l -> acc +. Layers.ms layers l) 0.0 Spec.bench_layers
          *. 100.0 /. busy_ms,
          "%" );
      ]
  in
  (* a layer a workload never runs reads zero *)
  let missing =
    List.filter_map
      (fun (name, unit) ->
        if List.exists (fun (n, _, _) -> n = name) rows then None else Some (name, 0.0, unit))
      Spec.per_layer
  in
  (plain.W.attempted + seg.W.attempted, failed, rows @ missing)

let run_segment (w : W.workload) ~seed ~seconds ~trace ~trace_out =
  let inst = w.W.prepare ~seed in
  let attempted, failed, rows =
    if trace then layer_rows inst ~seconds ~trace_out else e2e_rows inst ~seconds
  in
  { workload = w.W.name; digest = inst.W.digest; attempted; failed; traced = trace; rows }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v) else Json.Float v

let metrics_json ?(only = fun _ -> true) run =
  Json.Obj
    (List.filter_map
       (fun (name, v, unit) ->
         if only name then Some (name, Json.Obj [ ("value", json_number v); ("unit", Json.Str unit) ])
         else None)
       run.rows)

(* The result line: exactly the metrics BENCHMARK.json names for the mode. *)
let result_json run =
  let names =
    if run.traced then List.map fst Spec.per_layer
    else List.map (fun (n, _, _) -> n) Spec.end_to_end
  in
  Json.Obj
    [
      ("correct", Json.Bool (run.failed = 0));
      ("attempted", Json.Int run.attempted);
      ("failed", Json.Int run.failed);
      ("metrics", metrics_json ~only:(fun n -> List.mem n names) run);
    ]

let detail_json run =
  Json.Obj
    [
      ("workload", Json.Str run.workload);
      ("digest", Json.Str run.digest);
      ("attempted", Json.Int run.attempted);
      ("failed", Json.Int run.failed);
      ("metrics", metrics_json run);
    ]

let print_run ~seed ~seconds run =
  Printf.printf "%s seed %d, %.1f s%s: %d ops, %d failed\n" run.workload seed seconds
    (if run.traced then ", traced" else "")
    run.attempted run.failed;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit) run.rows

(* {2 Every workload: child processes} *)

let child ~workload ~seed ~seconds ~trace ~trace_out =
  let args =
    [
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
    ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, _ :: detail :: _ -> Json.parse detail
  | _ -> failwith (Printf.sprintf "the %s segment did not finish" workload)

let write_json path v =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string v ^ "\n"))

let str_field name v = Option.get (Option.bind (Json.member name v) Json.to_string_opt)
let int_field name v = Option.get (Option.bind (Json.member name v) Json.to_int)
let metric_value name detail = Option.bind (Json.member "metrics" detail) (Json.member name) |> Option.get

let all_untraced ~seed ~seconds ~out =
  let segments =
    List.concat
      (List.init rounds (fun r ->
           List.map
             (fun (w : W.workload) ->
               Printf.eprintf "round %d/%d: %s\n%!" (r + 1) rounds w.W.name;
               (w.W.name, child ~workload:w.W.name ~seed ~seconds ~trace:false ~trace_out:None))
             W.all))
  in
  let names =
    match segments with
    | (_, d) :: _ -> (
      match Json.member "metrics" d with
      | Some (Json.Obj fields) -> List.map (fun (n, m) -> (n, str_field "unit" m)) fields
      | _ -> [])
    | [] -> []
  in
  Printf.printf "%-8s %-16s %-7s %12s  %s\n" "workload" "metric" "unit" "median" "segments (spread)";
  let workloads =
    List.map
      (fun (w : W.workload) ->
        let mine = List.filter_map (fun (n, d) -> if n = w.W.name then Some d else None) segments in
        let digest = str_field "digest" (List.hd mine) in
        if List.exists (fun d -> str_field "digest" d <> digest) mine then
          failwith (w.W.name ^ ": segments ran different op lists");
        let total f = List.fold_left (fun acc d -> acc + int_field f d) 0 mine in
        let metrics =
          List.map
            (fun (name, unit) ->
              let values =
                Array.of_list
                  (List.map (fun d -> Compare.number (Compare.field "value" (metric_value name d))) mine)
              in
              let median = Stats.median values in
              Printf.printf "%-8s %-16s %-7s %12.6g  [%s] (%.1f%%)\n" w.W.name name unit median
                (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") values)))
                (100.0 *. Stats.spread values);
              ( name,
                Json.Obj
                  [
                    ("unit", Json.Str unit);
                    ("value", json_number median);
                    ("segments", Json.List (Array.to_list (Array.map json_number values)));
                  ] ))
            names
        in
        Json.Obj
          [
            ("name", Json.Str w.W.name);
            ("digest", Json.Str digest);
            ("attempted", Json.Int (total "attempted"));
            ("failed", Json.Int (total "failed"));
            ("metrics", Json.Obj metrics);
          ])
      W.all
  in
  let results =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("workloads", Json.List workloads);
      ]
  in
  Option.iter (fun path -> write_json path results) out;
  List.for_all (fun w -> int_field "failed" w = 0) workloads

let all_traced ~seed ~seconds ~trace_out ~out =
  let details =
    List.map
      (fun (w : W.workload) ->
        Printf.eprintf "traced: %s\n%!" w.W.name;
        let trace_out =
          Option.map (fun f -> Filename.remove_extension f ^ "." ^ w.W.name ^ Filename.extension f) trace_out
        in
        (w, child ~workload:w.W.name ~seed ~seconds ~trace:true ~trace_out))
      W.all
  in
  let rows = match details with (_, d) :: _ -> Option.get (Json.member "metrics" d) | [] -> Json.Null in
  Printf.printf "%-34s %-6s" "per pass (per request on serve)" "unit";
  List.iter (fun ((w : W.workload), _) -> Printf.printf " %12s" w.W.name) details;
  print_newline ();
  (match rows with
  | Json.Obj fields ->
    List.iter
      (fun (name, m) ->
        Printf.printf "%-34s %-6s" name (str_field "unit" m);
        List.iter
          (fun (_, d) -> Printf.printf " %12.6g" (Compare.number (Compare.field "value" (metric_value name d))))
          details;
        print_newline ())
      fields
  | _ -> ());
  let results =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("traced", Json.List (List.map snd details));
      ]
  in
  Option.iter (fun path -> write_json path results) out;
  List.for_all (fun (_, d) -> int_field "failed" d = 0) details

(* {2 Smoke test} *)

let smoke spec_path =
  let spec = Compare.load spec_path in
  let expected key =
    List.map
      (fun m -> (str_field "name" m, str_field "unit" m))
      (Compare.list (Compare.field key spec))
  in
  let check ~key run =
    let fail what =
      Printf.eprintf "benchmark smoke: %s%s: %s\n" run.workload (if run.traced then " (traced)" else "") what;
      exit 1
    in
    let v = Json.parse (Json.to_string (result_json run)) in
    (match v with
    | Json.Obj fields when List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ] -> ()
    | _ -> fail "result line has other keys");
    if Json.member "correct" v <> Some (Json.Bool true) || int_field "failed" v <> 0 then
      fail "failed ops";
    let metrics = Compare.field "metrics" v in
    let want = expected key in
    (match metrics with
    | Json.Obj fields when List.length fields = List.length want -> ()
    | _ -> fail ("metric set differs from BENCHMARK.json " ^ key));
    List.iter
      (fun (name, unit) ->
        match Json.member name metrics with
        | Some m when Json.member "unit" m = Some (Json.Str unit) -> (
          match Json.member "value" m with
          | Some (Json.Int _ | Json.Float _) -> ()
          | _ -> fail (name ^ " has no numeric value"))
        | _ -> fail (Printf.sprintf "%s [%s] missing" name unit))
      want
  in
  List.iter
    (fun w -> check ~key:"end_to_end" (run_segment w ~seed:1 ~seconds:0.5 ~trace:false ~trace_out:None))
    W.all;
  check ~key:"per_layer" (run_segment W.corpus ~seed:1 ~seconds:0.5 ~trace:true ~trace_out:None);
  print_endline "benchmark smoke: ok"

(* {2 Command line} *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and trace_out = ref None and out = ref None in
  let mode = ref `Run in
  let die msg =
    prerr_string (msg ^ "\n" ^ usage);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> die "bad --seed");
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s > 0.0 -> seconds := s
      | _ -> die "bad --seconds");
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--compare" :: a :: b :: rest -> mode := `Compare (a, b); parse rest
    | "--smoke" :: f :: rest -> mode := `Smoke f; parse rest
    | "--make-pool" :: f :: rest -> mode := `Make_pool f; parse rest
    | ("-h" | "--help") :: _ -> print_string usage; exit 0
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !mode with
  | `Compare (old_path, new_path) -> Compare.run ~spec:"BENCHMARK.json" ~old_path ~new_path
  | `Smoke f -> smoke f
  | `Make_pool f -> write_json f (Pool.make ())
  | `Run -> (
    match !workload with
    | Some name -> (
      match List.find_opt (fun (w : W.workload) -> w.W.name = name) W.all with
      | None -> die ("unknown workload " ^ name)
      | Some w ->
        let run = run_segment w ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out in
        print_run ~seed:!seed ~seconds:!seconds run;
        print_endline (Json.to_string (detail_json run));
        print_endline (Json.to_string (result_json run)))
    | None ->
      let ok =
        if !trace then all_traced ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out ~out:!out
        else all_untraced ~seed:!seed ~seconds:!seconds ~out:!out
      in
      if not ok then exit 1)
