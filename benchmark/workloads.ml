(* The four workloads. Each prepares its inputs from the seed, exposes a
   timed set-up, and measures segments of a closed loop with one client
   on one domain. Every output is checked against a reference that does
   not come from the code path being timed. *)

module Json = Fpfa_util.Json
module Prng = Fpfa_util.Prng
module Flow = Fpfa_core.Flow
module Staged = Fpfa_core.Flow.Staged
module Kernels = Fpfa_kernels.Kernels
module Arch = Fpfa_arch.Arch
module Serve = Fpfa_serve.Serve

let now = Unix.gettimeofday

(* Ops are timed in process CPU time. The loop runs on one domain and
   does no I/O, so on an idle host this equals wall time; on a shared
   host it leaves out the time the host takes the CPU away, which is
   noise from the benchmark's point of view. Run length stays wall time. *)
external cpu_now : unit -> float = "bench_cpu_now"

(* Tile quality summed over one pass: simulated time, not host time. *)
type qor = { cycles : int; exec : int; firings : int; slots : int; energy : float }

let qor_zero = { cycles = 0; exec = 0; firings = 0; slots = 0; energy = 0.0 }

let qor_add a b =
  {
    cycles = a.cycles + b.cycles;
    exec = a.exec + b.exec;
    firings = a.firings + b.firings;
    slots = a.slots + b.slots;
    energy = a.energy +. b.energy;
  }

type segment = {
  passes : (int * float) array array;
      (** per pass (a block of requests on serve), in order: each op's
          index and its time in ms *)
  layer_units : int;  (** what per-layer values are per: passes; requests on serve *)
  attempted : int;
  failed : int;
  extra : (string * float * string) list;
      (** workload-specific per-layer values (per layer unit) with their units *)
}

type instance = {
  digest : string;  (** of the op set, not its seeded order *)
  setup : unit -> unit;
  measure : seconds:float -> on_unit:(unit -> unit) -> segment;
  pass_ms : (int * float) array array -> float;  (** over some of the passes *)
  qor : unit -> qor;
  check : unit -> int;
      (** failures found by reference checks deferred past the timed loop *)
}

type workload = { name : string; prepare : seed:int -> instance }

let first_failure = ref true

let report_failure label what =
  if !first_failure then begin
    first_failure := false;
    Printf.eprintf "benchmark: %s failed: %s\n%!" label what
  end

(* {2 Compile workloads: corpus, large, remap} *)

type compiled = { qor : qor; conforms : bool; raw_nodes : int; min_nodes : int }
type op = { label : string; exec : unit -> compiled }

let stage_of_next = function
  | Staged.Built -> "minimise"
  | Staged.Minimised -> "cluster"
  | Staged.Clustered -> "schedule"
  | Staged.Scheduled | Staged.Allocated -> "allocate"

(* [Staged.run] minus its wrapping span: one advance per phase, each in
   its own benchmark span. *)
let rec finish s =
  match Staged.phase s with
  | Staged.Allocated -> s
  | p -> finish (Layers.span (stage_of_next p) (fun () -> Staged.advance s))

let compiled_of ?(built = true) (r : Flow.result) conforms =
  let m = r.Flow.metrics in
  {
    qor =
      {
        cycles = m.Mapping.Metrics.cycles;
        exec = m.Mapping.Metrics.exec_cycles;
        firings = m.Mapping.Metrics.alu_firings;
        slots = m.Mapping.Metrics.cycles * r.Flow.job.Mapping.Job.tile.Arch.alu_count;
        energy = m.Mapping.Metrics.energy;
      };
    conforms;
    raw_nodes = (if built then Cdfg.Graph.node_count r.Flow.raw_graph else 0);
    min_nodes = (if built then Cdfg.Graph.node_count r.Flow.graph else 0);
  }

let simulate ~memory_init ~check (r : Flow.result) =
  Layers.span "simulate" (fun () ->
      let memory, _ = Fpfa_sim.Sim.run ~memory_init r.Flow.job in
      check memory)

(* Source programs are checked against the reference interpreter, not
   against [Flow.verify], which compares only the evaluator and the
   simulator and never runs the interpreter. *)
let interp_check (k : Kernels.t) =
  let state = Kernels.reference_state k in
  fun memory ->
    Cdfg.Eval.conforms_to_interp ~memory_init:k.Kernels.inputs state
      { Cdfg.Eval.memory; named = [] }

let source_op (k : Kernels.t) =
  let check = interp_check k in
  {
    label = k.Kernels.name;
    exec =
      (fun () ->
        let s =
          Layers.span "frontend" (fun () ->
              Staged.of_source ~config:Flow.default_config k.Kernels.source)
        in
        let r = Staged.to_result (finish s) in
        compiled_of r (simulate ~memory_init:k.Kernels.inputs ~check r));
  }

let node_rows ~per ~raw ~min =
  let per_unit v = float_of_int v /. float_of_int per in
  [
    ("cdfg.raw_nodes", per_unit raw, "count");
    ("cdfg.min_nodes", per_unit min, "count");
    ("cdfg.kept_ratio", (if raw = 0 then 0.0 else float_of_int min /. float_of_int raw), "ratio");
  ]

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let compile_instance ~seed ~digest ~setup (ops : op array) =
  let rng = Prng.create seed in
  let n = Array.length ops in
  (* The first QoR of each op is its reference: mapping is deterministic,
     so any later difference is a failure. *)
  let first = Array.make n None in
  let exec i =
    let c = ops.(i).exec () in
    if first.(i) = None then first.(i) <- Some c.qor;
    c
  in
  let measure ~seconds ~on_unit =
    let deadline = now () +. seconds in
    let passes = ref [] in
    let attempted = ref 0 and failed = ref 0 in
    let raw_nodes = ref 0 and min_nodes = ref 0 in
    let rec pass () =
      let order = Prng.shuffle rng (List.init n Fun.id) in
      let times =
        List.map
          (fun i ->
            let t0 = cpu_now () in
            let outcome = try Ok (exec i) with e -> Error (Printexc.to_string e) in
            let ms = (cpu_now () -. t0) *. 1e3 in
            incr attempted;
            (match outcome with
            | Ok c when c.conforms && first.(i) = Some c.qor ->
              raw_nodes := !raw_nodes + c.raw_nodes;
              min_nodes := !min_nodes + c.min_nodes
            | Ok c ->
              incr failed;
              report_failure ops.(i).label
                (if c.conforms then "tile metrics changed between runs"
                 else "simulated memory differs from the reference")
            | Error e ->
              incr failed;
              report_failure ops.(i).label e);
            (i, ms))
          order
      in
      passes := Array.of_list times :: !passes;
      on_unit ();
      if now () < deadline then pass ()
    in
    pass ();
    let passes = Array.of_list (List.rev !passes) in
    {
      passes;
      layer_units = Array.length passes;
      attempted = !attempted;
      failed = !failed;
      extra = node_rows ~per:(Array.length passes) ~raw:!raw_nodes ~min:!min_nodes;
    }
  in
  (* one pass over the set, each op at its median: robust to a noisy
     neighbour stalling a single op *)
  let pass_ms passes =
    let samples = Array.make n [] in
    Array.iter (Array.iter (fun (i, ms) -> samples.(i) <- ms :: samples.(i))) passes;
    Array.fold_left (fun acc s -> acc +. Stats.median (Array.of_list s)) 0.0 samples
  in
  {
    digest;
    setup = (fun () -> setup exec);
    measure;
    pass_ms;
    qor = (fun () -> Array.fold_left (fun acc q -> match q with Some q -> qor_add acc q | None -> acc) qor_zero first);
    check = (fun () -> 0);
  }

let source_set kernels ~seed =
  let ops = Array.of_list (List.map source_op kernels) in
  (* set-up is one warm-up pass: heap grown, lazy tables built *)
  compile_instance ~seed
    ~digest:(digest_of (List.concat_map (fun (k : Kernels.t) -> [ k.Kernels.name; k.Kernels.source ]) kernels))
    ~setup:(fun exec -> Array.iteri (fun i _ -> ignore (exec i)) ops)
    ops

let corpus =
  {
    name = "corpus";
    prepare = source_set Kernels.all;
  }

let large_kernels =
  [
    Kernels.fir ~taps:256; Kernels.fir_delay ~taps:128; Kernels.matmul ~n:8;
    Kernels.correlation ~lags:8 ~n:32; Kernels.crc8 ~bytes:16; Kernels.pack565 ~n:32;
  ]

let large =
  {
    name = "large";
    prepare = source_set large_kernels;
  }

(* Remap: frozen minimised checkpoints re-entered at one tile point each.
   The DAG seeds are fixed, so the op set (and its tile QoR) does not
   depend on the run's seed; the seed orders the ops. Alus 1-2 are left
   out: these graphs overflow tile memory there. *)
let alus_axis = [| 3; 4; 5; 8 |]
let buses_axis = [| 2; 4; 6; 10; 16 |]
let window_axis = [| 1; 2; 3; 4; 6 |]
let points_per_checkpoint = 6

(* Op k pairs checkpoint k / 6 with grid point 7k mod 100, spreading the
   30 ops over the 4 x 5 x 5 grid. *)
let grid_point k =
  let g = 7 * k mod 100 in
  (alus_axis.(g / 25), buses_axis.(g / 5 mod 5), window_axis.(g mod 5))

type program = {
  pname : string;
  stage : unit -> Staged.t;  (** front end, at phase Built *)
  memory_init : (string * int array) list;
  check : (string * int array) list -> bool;
}

let dag_program ~ops ~seed =
  let g = Fpfa_kernels.Random_graph.generate ~seed ~ops () in
  let memory_init = Fpfa_kernels.Random_graph.random_inputs ~seed g in
  let expected = Cdfg.Eval.run ~memory_init g in
  {
    pname = Printf.sprintf "dag-%d" ops;
    stage = (fun () -> Staged.of_graph ~config:Flow.default_config g);
    memory_init;
    check = (fun memory -> Cdfg.Eval.equal_result expected { expected with Cdfg.Eval.memory });
  }

let kernel_program (k : Kernels.t) =
  {
    pname = k.Kernels.name;
    stage = (fun () -> Staged.of_source ~config:Flow.default_config k.Kernels.source);
    memory_init = k.Kernels.inputs;
    check = interp_check k;
  }

let remap_prepare ~seed =
  let programs =
    Array.of_list
      ([ dag_program ~ops:1000 ~seed:1; dag_program ~ops:2000 ~seed:2 ]
      @ List.map kernel_program
          [ Kernels.crc8 ~bytes:16; Kernels.matmul ~n:8; Kernels.fir ~taps:256 ])
  in
  let checkpoints = Array.map (fun p -> p.stage ()) programs in
  let ops =
    Array.init
      (Array.length programs * points_per_checkpoint)
      (fun k ->
        let c = k / points_per_checkpoint in
        let p = programs.(c) in
        let alus, buses, window = grid_point k in
        let tile =
          Arch.paper_tile |> Arch.with_alu_count alus |> Arch.with_buses buses
          |> Arch.with_move_window window
        in
        let config = { Flow.default_config with Flow.tile } in
        {
          label = Printf.sprintf "%s@a%d.b%d.w%d" p.pname alus buses window;
          exec =
            (fun () ->
              match Layers.span "rewind" (fun () -> Staged.rewind checkpoints.(c) ~config) with
              | None -> failwith "rewind refused a tile-only config change"
              | Some s ->
                let r = Staged.to_result (finish s) in
                compiled_of ~built:false r
                  (simulate ~memory_init:p.memory_init ~check:p.check r));
        })
  in
  let digest =
    digest_of
      (Array.to_list
         (Array.map (fun s -> Cdfg.Serialize.digest (Staged.raw_graph s)) checkpoints)
      @ Array.to_list (Array.map (fun op -> op.label) ops))
  in
  compile_instance ~seed ~digest
    ~setup:(fun _ ->
      Array.iteri
        (fun c p ->
          let s = Staged.advance (p.stage ()) in
          Staged.freeze s;
          checkpoints.(c) <- s)
        programs)
    ops

let remap =
  {
    name = "remap";
    prepare = remap_prepare;
  }

(* {2 Serve} *)

let pool = lazy (Pool.of_json Pool_data.text)
let history_size = 200
let edit_working_set = 300
let block = 100
let warm_up_requests = 3000

let member path v =
  List.fold_left (fun v name -> Option.bind v (Json.member name)) (Some v) path

let int_at path v = Option.value ~default:0 (Option.bind (member path v) Json.to_int)

let float_at path v =
  match member path v with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let outcome_of resp =
  match (member [ "cached" ] resp, member [ "resumed_from" ] resp) with
  | Some (Json.Str "request"), _ -> "request_hit"
  | Some (Json.Str _), _ -> "mapping_hit"
  | _, Some (Json.Str "patched") -> "patched"
  | _, Some (Json.Str _) -> "rewind"
  | _ -> "cold"

let serve_prepare ~seed =
  let pool = Lazy.force pool in
  let rng = Prng.create seed in
  (* an evenly spaced, seed-independent working set: seeds reorder the
     traffic but do not change which programs it compiles *)
  let edits =
    Array.init edit_working_set (fun i ->
        pool.Pool.edits.(i * Array.length pool.Pool.edits / edit_working_set))
  in
  let prefill = Array.to_list (Array.map (fun (name, _) -> Pool.kernel_line name) pool.Pool.kernels) in
  let daemon = ref None and prefill_qor = ref qor_zero and warm = ref false in
  (* set-up: a fresh daemon with default caches, filled with the corpus *)
  let setup () =
    Option.iter Serve.shutdown !daemon;
    let d = Serve.create () in
    prefill_qor :=
      List.fold_left
        (fun acc line ->
          let resp = Json.parse (Serve.handle_line d line) in
          if member [ "ok" ] resp <> Some (Json.Bool true) then
            failwith ("serve set-up request failed: " ^ line);
          qor_add acc
            {
              cycles = int_at [ "result"; "metrics"; "cycles" ] resp;
              exec = int_at [ "result"; "metrics"; "exec_cycles" ] resp;
              firings = int_at [ "result"; "metrics"; "alu_firings" ] resp;
              slots = int_at [ "result"; "metrics"; "cycles" ] resp * Arch.paper_tile.Arch.alu_count;
              energy = float_at [ "result"; "metrics"; "energy" ] resp;
            })
        qor_zero prefill;
    daemon := Some d;
    warm := false
  in
  let history = Array.make history_size "" and hist_len = ref 0 and hist_pos = ref 0 in
  let remember line =
    history.(!hist_pos) <- line;
    hist_pos := (!hist_pos + 1) mod history_size;
    hist_len := Stdlib.min history_size (!hist_len + 1)
  in
  List.iter remember prefill;
  (* Every 10 requests hold 6 repeats of a recent request, 2 one-knob
     near-misses and 2 single-literal edits, in seeded order: the mix is
     stratified so that seeds vary which requests come, not how many of
     each kind. *)
  let kinds = ref [] in
  let next_line () =
    if !kinds = [] then
      kinds := Prng.shuffle rng [ `Repeat; `Repeat; `Repeat; `Repeat; `Repeat; `Repeat; `Near; `Near; `Edit; `Edit ];
    let kind = List.hd !kinds in
    kinds := List.tl !kinds;
    let line =
      match kind with
      | `Repeat -> history.(Prng.int rng !hist_len)
      | `Near -> Pool.near_line pool.Pool.near.(Prng.int rng (Array.length pool.Pool.near))
      | `Edit -> Pool.edit_line pool edits.(Prng.int rng (Array.length edits))
    in
    remember line;
    line
  in
  (* request line -> result bytes -> responses carrying them *)
  let seen : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 1024 in
  let record line result =
    let results =
      match Hashtbl.find_opt seen line with
      | Some r -> r
      | None ->
        let r = Hashtbl.create 1 in
        Hashtbl.replace seen line r;
        r
    in
    let bytes = Json.to_string result in
    Hashtbl.replace results bytes (1 + Option.value ~default:0 (Hashtbl.find_opt results bytes))
  in
  (* The caches start with the corpus only; the first few thousand
     requests fill them and are not timed. *)
  let warm_up d =
    for _ = 1 to warm_up_requests do
      let line = next_line () in
      let resp = Json.parse (Serve.handle_line d line) in
      match member [ "result" ] resp with
      | Some result when Pool.good_response resp -> record line result
      | _ -> failwith ("serve warm-up request failed: " ^ line)
    done;
    warm := true
  in
  let stats d = Json.parse (Serve.handle_line d {|{"op":"stats"}|}) in
  let measure ~seconds ~on_unit =
    let d = Option.get !daemon in
    if not !warm then warm_up d;
    let before = stats d in
    let deadline = now () +. seconds in
    let blocks = ref [] and current = ref [] in
    let by_outcome = Hashtbl.create 8 in
    let attempted = ref 0 and failed = ref 0 in
    let raw_nodes = ref 0 and min_nodes = ref 0 in
    let rec go () =
      let line = next_line () in
      let t0 = cpu_now () in
      let text = Layers.span "request" (fun () -> Serve.handle_line d line) in
      let ms = (cpu_now () -. t0) *. 1e3 in
      current := (0, ms) :: !current;
      incr attempted;
      let resp = Json.parse text in
      (match member [ "result" ] resp with
      | Some result when Pool.good_response resp ->
        let o = outcome_of resp in
        Hashtbl.replace by_outcome o (ms :: Option.value ~default:[] (Hashtbl.find_opt by_outcome o));
        (* the front end runs for every request the request cache misses;
           minimisation only for cold and patched compiles *)
        if o <> "request_hit" then raw_nodes := !raw_nodes + int_at [ "nodes_raw" ] result;
        if o = "cold" || o = "patched" then min_nodes := !min_nodes + int_at [ "nodes" ] result;
        record line result
      | _ ->
        incr failed;
        report_failure line text);
      if !attempted mod block = 0 then begin
        blocks := Array.of_list (List.rev !current) :: !blocks;
        current := [];
        on_unit ()
      end;
      if !attempted mod block <> 0 || now () < deadline then go ()
    in
    go ();
    let after = stats d in
    let delta path = float_of_int (int_at path after - int_at path before) in
    let requests = float_of_int !attempted in
    let share o =
      float_of_int (List.length (Option.value ~default:[] (Hashtbl.find_opt by_outcome o))) /. requests
    in
    let p50 o =
      match Hashtbl.find_opt by_outcome o with
      | Some l -> Stats.median (Array.of_list l)
      | None -> 0.0
    in
    let patched = delta [ "result"; "incr"; "patched" ] in
    let fallback = delta [ "result"; "incr"; "fallback" ] in
    {
      passes = Array.of_list (List.rev !blocks);
      layer_units = !attempted;
      attempted = !attempted;
      failed = !failed;
      extra =
        List.concat_map
          (fun o ->
            [ ("serve." ^ o ^ ".share", share o, "ratio"); ("serve." ^ o ^ ".ms_p50", p50 o, "ms") ])
          Spec.outcomes
        @ [
            ( "serve.patched_ratio",
              (if patched +. fallback = 0.0 then 0.0 else patched /. (patched +. fallback)),
              "ratio" );
            ( "serve.dirty_nodes_per_patch",
              (if patched = 0.0 then 0.0 else delta [ "result"; "incr"; "dirty_nodes" ] /. patched),
              "count" );
            ("serve.l1.evictions", delta [ "result"; "cache"; "request"; "evictions" ] /. requests, "count");
            ("serve.l2.evictions", delta [ "result"; "cache"; "mapping"; "evictions" ] /. requests, "count");
          ]
        @ node_rows ~per:!attempted ~raw:!raw_nodes ~min:!min_nodes;
    }
  in
  (* one pass is a block of 100 consecutive requests *)
  let pass_ms blocks =
    Stats.median (Array.map (fun b -> Array.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 b) blocks)
  in
  (* Every response must carry the bytes a cache-off daemon computes for
     the same request: that daemon compiles everything cold, so it shares
     no cached, rewound or patched state with the one under test. *)
  let check () =
    let reference = Serve.create ~cache_size:0 () in
    let failed = ref 0 in
    Hashtbl.iter
      (fun line results ->
        let expected =
          match member [ "result" ] (Json.parse (Serve.handle_line reference line)) with
          | Some r -> Json.to_string r
          | None -> ""
        in
        Hashtbl.iter
          (fun bytes count ->
            if not (String.equal bytes expected) then begin
              failed := !failed + count;
              report_failure line "result differs from the cache-off daemon"
            end)
          results)
      seen;
    Serve.shutdown reference;
    !failed
  in
  {
    digest =
      digest_of
        (Pool_data.text
        :: List.map (fun (k : Kernels.t) -> k.Kernels.source) Kernels.all
        @ List.map string_of_int [ history_size; edit_working_set; block; warm_up_requests ]);
    setup;
    measure;
    pass_ms;
    qor = (fun () -> !prefill_qor);
    check;
  }

let serve =
  {
    name = "serve";
    prepare = serve_prepare;
  }

let all = [ corpus; large; remap; serve ]
