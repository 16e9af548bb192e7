module Json = Fpfa_util.Json
module Obs = Fpfa_obs.Obs
module Pool = Fpfa_exec.Pool
module Flow = Fpfa_core.Flow
module Staged = Fpfa_core.Flow.Staged
module Sweep = Fpfa_core.Sweep
module Arch = Fpfa_arch.Arch
module Kernels = Fpfa_kernels.Kernels
module Diag = Fpfa_diag.Diag

exception Bad_request of string

(* A finished mapping: the frozen staged checkpoint (for rewinds) plus
   the response payload it rendered to. *)
type mapping_entry = {
  e_staged : Staged.t;
  e_digest : string;
  e_result : Json.t;
}

(* Request-cache entries store what the envelope needs beyond [result]. *)
type response_entry = {
  r_digest : string option;
  r_result : Json.t;
}

type t = {
  mutable pool : Pool.t option;
  pool_jobs : int;
  request_cache : response_entry Lru.t;
  program_index : string Lru.t;
      (* {!Staged.frontend_key} of a program -> digest of the raw graph
         its front end builds: a request for a known program goes
         straight to the mapping cache and the near-miss index *)
  mapping_cache : mapping_entry Lru.t;
  by_digest : (string, string) Hashtbl.t;
      (* digest -> most recent mapping-cache key with that digest; the
         near-miss index rewinds feed from. Conservative: eviction drops
         the binding only when it still points at the evicted key. *)
  cache_dir : string option;
  cache_disk_max : int option;
      (* disk-store budget in bytes; a sweep after every write (and at
         startup) removes least-recently-used entry files — reads stamp
         mtime — until the directory fits *)
  observe : bool;
  mutable running : bool;
  (* tallies for the stats endpoint *)
  mutable n_requests : int;
  mutable n_compiles : int;
  mutable n_resumed : int;
  mutable n_disk_hits : int;
  mutable n_disk_evictions : int;
  mutable n_errors : int;
}

(* Mirror the three LRUs into Obs counters, so `--stats` (and the
   observe-mode stats op) report them next to the span aggregates;
   refreshed whenever stats are drained (stats op, shutdown). *)
let sync_obs_counters t =
  let set prefix (cache : _ Lru.t) =
    let s = Lru.stats cache in
    Obs.set (Obs.counter (prefix ^ ".hits")) s.Lru.hits;
    Obs.set (Obs.counter (prefix ^ ".misses")) s.Lru.misses;
    Obs.set (Obs.counter (prefix ^ ".evictions")) s.Lru.evictions
  in
  set "serve.l1" t.request_cache;
  set "serve.program" t.program_index;
  set "serve.l2" t.mapping_cache

(* Disk-store GC: when the entry files under [cache_dir] exceed the byte
   budget, remove them oldest-mtime-first until the directory fits.
   Reads stamp mtime, so age is recency of use, not of creation. *)
let disk_sweep t =
  match (t.cache_dir, t.cache_disk_max) with
  | Some dir, Some budget ->
    let entries =
      List.filter_map
        (fun f ->
          if Filename.check_suffix f ".json" then
            let path = Filename.concat dir f in
            match Unix.stat path with
            | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size)
            | exception Unix.Unix_error _ -> None
          else None)
        (Array.to_list (Sys.readdir dir))
    in
    let total = List.fold_left (fun acc (_, _, size) -> acc + size) 0 entries in
    if total > budget then begin
      let oldest_first =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) entries
      in
      ignore
        (List.fold_left
           (fun left (path, _, size) ->
             if left > budget then begin
               (try
                  Sys.remove path;
                  t.n_disk_evictions <- t.n_disk_evictions + 1
                with Sys_error _ -> ());
               left - size
             end
             else left)
           total oldest_first)
    end
  | _ -> ()

let create ?(jobs = 1) ?(cache_size = 256) ?cache_dir ?cache_disk_max
    ?(observe = false) () =
  let jobs = max 1 jobs in
  (match cache_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  let t =
    {
      pool = (if jobs > 1 then Some (Pool.create ~jobs) else None);
      pool_jobs = jobs;
      request_cache = Lru.create ~capacity:(max 0 cache_size);
      program_index = Lru.create ~capacity:(max 0 cache_size);
      mapping_cache = Lru.create ~capacity:(max 0 cache_size);
      by_digest = Hashtbl.create 64;
      cache_dir;
      cache_disk_max;
      observe;
      running = true;
      n_requests = 0;
      n_compiles = 0;
      n_resumed = 0;
      n_disk_hits = 0;
      n_disk_evictions = 0;
      n_errors = 0;
    }
  in
  disk_sweep t;
  t

let jobs t = t.pool_jobs
let running t = t.running

let shutdown t =
  (match t.pool with Some p -> Pool.shutdown p | None -> ());
  sync_obs_counters t;
  t.pool <- None

(* {2 Request field access} *)

let str_field req name = Option.bind (Json.member name req) Json.to_string_opt
let int_field req name = Option.bind (Json.member name req) Json.to_int
let bool_field req name = Option.bind (Json.member name req) Json.to_bool

let require what = function
  | Some v -> v
  | None -> raise (Bad_request what)

type program = {
  p_source : string;
  p_func : string;
  p_inputs : (string * int array) list;
}

let program_of req =
  let func = Option.value ~default:"main" (str_field req "func") in
  match (str_field req "kernel", str_field req "source") with
  | Some _, Some _ ->
    raise (Bad_request "give either \"kernel\" or \"source\", not both")
  | Some name, None -> (
    (* an ambiguous prefix takes the first match, as on the command
       line, but without the note: a daemon answers in-band *)
    match Kernels.resolve name with
    | k :: _ ->
      { p_source = k.Kernels.source; p_func = func; p_inputs = k.Kernels.inputs }
    | [] -> raise (Bad_request (Printf.sprintf "unknown kernel %S" name)))
  | None, Some source -> { p_source = source; p_func = func; p_inputs = [] }
  | None, None -> raise (Bad_request "request needs \"kernel\" or \"source\"")

let variant_of req =
  let name = Option.value ~default:"paper" (str_field req "variant") in
  match Baseline.find name with
  | Some v -> v
  | None -> raise (Bad_request (Printf.sprintf "unknown variant %S" name))

(* The request's flow config plus the fingerprint that, joined with the
   CDFG digest, keys the mapping cache. Variant configs are module-level
   values, so their closure field [cluster_with] stays physically equal
   across requests — exactly what [Staged.rewind] compares with. *)
let config_of req =
  let v = variant_of req in
  let config = v.Baseline.config in
  let tile = config.Flow.tile in
  let tile =
    match int_field req "alus" with
    | Some n -> Arch.with_alu_count n tile
    | None -> tile
  in
  let tile =
    match int_field req "buses" with
    | Some n -> Arch.with_buses n tile
    | None -> tile
  in
  let tile =
    match int_field req "window" with
    | Some n -> Arch.with_move_window n tile
    | None -> tile
  in
  (try Arch.validate tile
   with Invalid_argument msg -> raise (Bad_request ("bad tile: " ^ msg)));
  let bitopt =
    Option.value ~default:config.Flow.bitopt (bool_field req "bitopt")
  in
  let bitopt_width =
    match int_field req "width" with
    | None -> config.Flow.bitopt_width
    | Some w when w >= 1 && w <= 63 -> w
    | Some w ->
      raise
        (Bad_request (Printf.sprintf "bad width %d: want 1 <= width <= 63" w))
  in
  (* the bitopt toggle and the assumed input width both change the
     minimised graph, so they must key the mapping cache alongside the
     variant and tile knobs *)
  let fingerprint =
    Printf.sprintf "%s:a%d:b%d:w%d:o%d:d%d" v.Baseline.vname
      tile.Arch.alu_count tile.Arch.buses tile.Arch.move_window
      (if bitopt then 1 else 0)
      bitopt_width
  in
  ({ config with Flow.tile; Flow.bitopt; Flow.bitopt_width }, fingerprint)

(* {2 Payload rendering} *)

let metrics_json (m : Mapping.Metrics.t) =
  Json.Obj
    [
      ("cycles", Json.Int m.Mapping.Metrics.cycles);
      ("exec_cycles", Json.Int m.Mapping.Metrics.exec_cycles);
      ("inserted_cycles", Json.Int m.Mapping.Metrics.inserted_cycles);
      ("levels", Json.Int m.Mapping.Metrics.levels);
      ("alu_ops", Json.Int m.Mapping.Metrics.alu_ops);
      ("mul_ops", Json.Int m.Mapping.Metrics.mul_ops);
      ("alu_firings", Json.Int m.Mapping.Metrics.alu_firings);
      ("moves", Json.Int m.Mapping.Metrics.moves);
      ("forwards", Json.Int m.Mapping.Metrics.forwards);
      ("mem_reads", Json.Int m.Mapping.Metrics.mem_reads);
      ("mem_writes", Json.Int m.Mapping.Metrics.mem_writes);
      ("deletes", Json.Int m.Mapping.Metrics.deletes);
      ("bus_transfers", Json.Int m.Mapping.Metrics.bus_transfers);
      ("local_transfers", Json.Int m.Mapping.Metrics.local_transfers);
      ("alu_utilisation", Json.Float m.Mapping.Metrics.alu_utilisation);
      ("locality", Json.Float m.Mapping.Metrics.locality);
      ("energy", Json.Float m.Mapping.Metrics.energy);
    ]

let compile_result_json ~func ~verified (result : Flow.result) =
  let raw = Cdfg.Graph.stats result.Flow.raw_graph in
  let min = Cdfg.Graph.stats result.Flow.graph in
  Json.Obj
    [
      ("func", Json.Str func);
      ("nodes_raw", Json.Int raw.Cdfg.Graph.total);
      ("nodes", Json.Int min.Cdfg.Graph.total);
      ("critical_path", Json.Int min.Cdfg.Graph.critical_path);
      ( "clusters",
        Json.Int (Array.length result.Flow.clustering.Mapping.Cluster.clusters)
      );
      ("metrics", metrics_json result.Flow.metrics);
      ( "verified",
        match verified with Some ok -> Json.Bool ok | None -> Json.Null );
    ]

let diag_json (d : Diag.t) =
  Json.Obj
    [
      ("rule", Json.Str d.Diag.rule);
      ("severity", Json.Str (Diag.severity_to_string d.Diag.severity));
      ("node", match d.Diag.node with Some n -> Json.Int n | None -> Json.Null);
      ("message", Json.Str d.Diag.message);
    ]

(* {2 The compile path and its caches} *)

(* One fully computed compile — pool workers run this cache-free. *)
type computed = {
  c_staged : Staged.t;  (** Allocated *)
  c_digest : string;
  c_result : Json.t;
  c_resumed_from : string option;
}

(* [digest] is {!Cdfg.Serialize.digest} of [staged]'s raw graph; the
   caller has already computed it to probe the caches. *)
let finish_compile ~program ~verify ~digest staged ~resumed_from =
  let staged = Staged.run staged in
  let result = Staged.to_result staged in
  let verified =
    if verify then Some (Flow.verify ~memory_init:program.p_inputs result)
    else None
  in
  {
    c_staged = staged;
    c_digest = digest;
    c_result = compile_result_json ~func:program.p_func ~verified result;
    c_resumed_from = resumed_from;
  }

let compute_compile ~config ~program ~verify () =
  let staged = Staged.of_source ~config ~func:program.p_func program.p_source in
  let digest = Cdfg.Serialize.digest (Staged.raw_graph staged) in
  finish_compile ~program ~verify ~digest staged ~resumed_from:None

let disk_path t key =
  Option.map
    (fun dir ->
      Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".json"))
    t.cache_dir

let disk_read t key =
  match disk_path t key with
  | None -> None
  | Some path when Sys.file_exists path -> (
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (* stamp recency so the GC sweep evicts genuinely cold entries *)
    (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
    match Json.parse text with
    | v -> Some v
    | exception Json.Parse_error _ -> None)
  | Some _ -> None

let disk_write t key value =
  match disk_path t key with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Json.to_string value));
    disk_sweep t

let forget_evicted t evicted =
  List.iter
    (fun (ekey, (e : mapping_entry)) ->
      match Hashtbl.find_opt t.by_digest e.e_digest with
      | Some current when String.equal current ekey ->
        Hashtbl.remove t.by_digest e.e_digest
      | _ -> ())
    evicted

(* Insert a computed mapping into the content-addressed level (frozen,
   so later pool workers may share the graphs read-only), refresh the
   digest index, and persist. Admission-domain only. *)
let cache_mapping t ~fingerprint computed =
  let key = computed.c_digest ^ "|" ^ fingerprint in
  Staged.freeze computed.c_staged;
  let entry =
    {
      e_staged = computed.c_staged;
      e_digest = computed.c_digest;
      e_result = computed.c_result;
    }
  in
  let evicted = Lru.add t.mapping_cache key entry in
  (* Index after insertion, forget after indexing: a capacity-0 cache
     evicts the fresh entry itself, which must also drop its binding. *)
  Hashtbl.replace t.by_digest computed.c_digest key;
  forget_evicted t evicted;
  disk_write t key computed.c_result

(* The staged compile for one request, consulting the mapping cache:
   returns the payload plus the envelope's digest/cached/resumed_from.
   The request cache has already missed when this runs. Verifying
   requests bypass the mapping cache (their payload embeds the check's
   verdict, which a cached mapping never carries). The front end is a
   pure function of the program, so it runs only for a program the
   index does not know (to digest its raw graph) or for a compile that
   must start from [Built]; a program whose front end raises is never
   indexed. *)
let mapped_compile t ~config ~fingerprint ~program ~verify () =
  let front =
    lazy (Staged.of_source ~config ~func:program.p_func program.p_source)
  in
  let pkey =
    Staged.frontend_key ~config ~func:program.p_func program.p_source
  in
  let digest =
    match Lru.find t.program_index pkey with
    | Some digest -> digest
    | None ->
      let digest = Cdfg.Serialize.digest (Staged.raw_graph (Lazy.force front)) in
      ignore (Lru.add t.program_index pkey digest);
      digest
  in
  let key = digest ^ "|" ^ fingerprint in
  match if verify then None else Lru.find t.mapping_cache key with
  | Some entry -> (entry.e_result, digest, Some "mapping", None)
  | None -> (
    match if verify then None else disk_read t key with
    | Some result ->
      t.n_disk_hits <- t.n_disk_hits + 1;
      (result, digest, Some "disk", None)
    | None ->
      (* Near miss: another config reached this same CDFG — rewind its
         checkpoint to the first phase this config dirties. *)
      let resumable =
        match Hashtbl.find_opt t.by_digest digest with
        | Some other_key -> (
          match Lru.peek t.mapping_cache other_key with
          | Some entry -> Staged.rewind entry.e_staged ~config
          | None -> None)
        | None -> None
      in
      let computed =
        match resumable with
        | Some staged when Staged.phase staged <> Staged.Built ->
          t.n_resumed <- t.n_resumed + 1;
          finish_compile ~program ~verify ~digest staged
            ~resumed_from:(Some (Staged.phase_name (Staged.phase staged)))
        | _ ->
          finish_compile ~program ~verify ~digest (Lazy.force front)
            ~resumed_from:None
      in
      t.n_compiles <- t.n_compiles + 1;
      if not verify then cache_mapping t ~fingerprint computed;
      (computed.c_result, digest, None, computed.c_resumed_from))

(* {2 Non-compile operations} *)

let op_check ?pool req =
  let program = program_of req in
  let config, _ = config_of req in
  match
    Flow.map_source ~config ~func:program.p_func program.p_source
  with
  | result ->
    let diags, facts = Flow.audit ?pool ~config result in
    let facts_json =
      match facts with
      | Some (addr, _) -> Json.parse (Fpfa_analysis.Addr.facts_to_json addr)
      | None -> Json.Null
    in
    let payload =
      Json.Obj
        [
          ("errors", Json.Int (Diag.count Diag.Error diags));
          ("warnings", Json.Int (Diag.count Diag.Warning diags));
          ("diagnostics", Json.List (List.map diag_json diags));
          ("address_facts", facts_json);
        ]
    in
    (payload, Cdfg.Serialize.digest result.Flow.raw_graph)
  | exception Flow.Flow_error msg -> raise (Bad_request ("flow error: " ^ msg))

let axis_of req =
  match str_field req "axis" with
  | None -> raise (Bad_request "sweep needs \"axis\"")
  | Some name -> (
    match Sweep.axis_of_string name with
    | Some axis -> axis
    | None -> raise (Bad_request (Printf.sprintf "unknown axis %S" name)))

let values_of req =
  match Option.bind (Json.member "values" req) Json.to_list with
  | None -> raise (Bad_request "sweep needs \"values\"")
  | Some vs ->
    List.map
      (fun v ->
        match Json.to_int v with
        | Some n -> n
        | None -> raise (Bad_request "\"values\" must be integers"))
      vs

(* The front end runs here, so the envelope can carry the raw graph's
   digest; {!Sweep.run_staged} minimises once and rewinds the checkpoint
   to each point, on the daemon's pool when it has one. *)
let op_sweep ?pool req =
  let program = program_of req in
  let config, _ = config_of req in
  let axis = axis_of req in
  let points = Sweep.points axis (values_of req) in
  let verify = Option.value ~default:false (bool_field req "verify") in
  let base = Staged.of_source ~config ~func:program.p_func program.p_source in
  let digest = Cdfg.Serialize.digest (Staged.raw_graph base) in
  let rows =
    match
      Sweep.run_staged ?pool ~base:config.Flow.tile ~verify
        ~memory_init:program.p_inputs base points
    with
    | rows -> rows
    | exception Sweep.Sweep_error msg ->
      raise (Bad_request ("sweep failed: " ^ msg))
  in
  let row_json (row : Sweep.row) =
    let m = row.Sweep.metrics in
    Json.Obj
      [
        ("axis", Json.Str (Sweep.axis_name row.Sweep.point.Sweep.axis));
        ("value", Json.Int row.Sweep.point.Sweep.value);
        ("cycles", Json.Int m.Mapping.Metrics.cycles);
        ("levels", Json.Int m.Mapping.Metrics.levels);
        ("moves", Json.Int m.Mapping.Metrics.moves);
        ("stalls", Json.Int m.Mapping.Metrics.inserted_cycles);
        ("utilisation", Json.Float m.Mapping.Metrics.alu_utilisation);
        ("energy", Json.Float m.Mapping.Metrics.energy);
        ( "verified",
          match row.Sweep.verified with
          | Some ok -> Json.Bool ok
          | None -> Json.Null );
      ]
  in
  (Json.Obj [ ("rows", Json.List (List.map row_json rows)) ], digest)

let lru_stats_json (type a) (cache : a Lru.t) =
  let s = Lru.stats cache in
  Json.Obj
    [
      ("hits", Json.Int s.Lru.hits);
      ("misses", Json.Int s.Lru.misses);
      ("evictions", Json.Int s.Lru.evictions);
      ("entries", Json.Int (Lru.length cache));
      ("capacity", Json.Int (Lru.capacity cache));
    ]

let cache_stats_json t =
  Json.Obj
    [
      ("request", lru_stats_json t.request_cache);
      ("program", lru_stats_json t.program_index);
      ("mapping", lru_stats_json t.mapping_cache);
    ]

let obs_stats_json () =
  (* Aggregate spans per (cat, name); drain-and-reset so successive
     stats requests report deltas. Stats requests run between batches on
     the admission domain, so the Obs drain contract holds. *)
  let spans = Obs.spans () in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Obs.finished_span) ->
      let key = (s.Obs.scat, s.Obs.sname) in
      match Hashtbl.find_opt tbl key with
      | Some (count, total) ->
        Hashtbl.replace tbl key (count + 1, total +. s.Obs.sdur)
      | None ->
        order := key :: !order;
        Hashtbl.replace tbl key (1, s.Obs.sdur))
    spans;
  let span_rows =
    List.rev_map
      (fun (cat, name) ->
        let count, total = Hashtbl.find tbl (cat, name) in
        Json.Obj
          [
            ("cat", Json.Str cat);
            ("name", Json.Str name);
            ("count", Json.Int count);
            ("total_us", Json.Int (int_of_float (total *. 1e6)));
          ])
      !order
  in
  let counters =
    List.filter_map
      (fun (name, value) ->
        if value = 0 then None else Some (name, Json.Int value))
      (Obs.counters ())
  in
  Obs.reset ();
  [ ("counters", Json.Obj counters); ("spans", Json.List span_rows) ]

let op_stats t =
  sync_obs_counters t;
  Json.Obj
    ([
       ("requests", Json.Int t.n_requests);
       ("compiles", Json.Int t.n_compiles);
       ("resumed", Json.Int t.n_resumed);
       ("disk_hits", Json.Int t.n_disk_hits);
       ("disk_evictions", Json.Int t.n_disk_evictions);
       ("errors", Json.Int t.n_errors);
       ("jobs", Json.Int t.pool_jobs);
       ("cache", cache_stats_json t);
     ]
    @ if t.observe then obs_stats_json () else [])

let op_cache t req =
  match Option.value ~default:"stats" (str_field req "action") with
  | "stats" -> cache_stats_json t
  | "clear" ->
    Lru.clear t.request_cache;
    Lru.clear t.program_index;
    Lru.clear t.mapping_cache;
    Hashtbl.reset t.by_digest;
    Json.Obj [ ("cleared", Json.Bool true) ]
  | "resize" ->
    let capacity =
      require "resize needs \"capacity\"" (int_field req "capacity")
    in
    if capacity < 0 then raise (Bad_request "\"capacity\" must be >= 0");
    ignore (Lru.set_capacity t.request_cache capacity);
    ignore (Lru.set_capacity t.program_index capacity);
    forget_evicted t (Lru.set_capacity t.mapping_cache capacity);
    Json.Obj [ ("capacity", Json.Int capacity) ]
  | other ->
    raise (Bad_request (Printf.sprintf "unknown cache action %S" other))

(* {2 Envelopes and dispatch} *)

let request_key req =
  match req with
  | Json.Obj fields ->
    let without_id =
      Json.Obj (List.filter (fun (name, _) -> name <> "id") fields)
    in
    Digest.to_hex
      (Digest.string (Json.to_string (Json.sort_fields without_id)))
  | other -> Digest.to_hex (Digest.string (Json.to_string other))

let envelope ~id ~op ?error ?digest ?cached ?resumed_from ~result ~latency_us
    () =
  match error with
  | Some msg ->
    Json.Obj
      [
        ("id", id);
        ("ok", Json.Bool false);
        ("op", Json.Str op);
        ("error", Json.Str msg);
        ("latency_us", Json.Int latency_us);
      ]
  | None ->
    Json.Obj
      [
        ("id", id);
        ("ok", Json.Bool true);
        ("op", Json.Str op);
        ("digest", match digest with Some d -> Json.Str d | None -> Json.Null);
        ("cached", match cached with Some c -> Json.Str c | None -> Json.Null);
        ( "resumed_from",
          match resumed_from with Some p -> Json.Str p | None -> Json.Null );
        ("result", result);
        ("latency_us", Json.Int latency_us);
      ]

let now_us start = int_of_float ((Unix.gettimeofday () -. start) *. 1e6)

(* Batch admission state: a sub-request is either already answered (a
   request-cache hit, a non-compile operation, a malformed request) or a
   compile miss waiting for the pool. *)
type miss = {
  a_id : Json.t;
  a_key : string;
  a_config : Flow.config;
  a_fingerprint : string;
  a_program : program;
  a_verify : bool;
  a_start : float;
}

type admitted = Answered of Json.t | Miss of miss

let rec handle_op t ?pool ~op req =
  match op with
  | "ping" -> (Json.Obj [ ("pong", Json.Bool true) ], None, None, None)
  | "stats" -> (op_stats t, None, None, None)
  | "cache" -> (op_cache t req, None, None, None)
  | "shutdown" ->
    t.running <- false;
    (Json.Obj [ ("stopping", Json.Bool true) ], None, None, None)
  | "batch" -> (op_batch t req, None, None, None)
  | "compile" | "check" | "sweep" -> (
    let key = request_key req in
    match Lru.find t.request_cache key with
    | Some entry -> (entry.r_result, entry.r_digest, Some "request", None)
    | None ->
      let result, digest, cached, resumed_from =
        match op with
        | "compile" ->
          let program = program_of req in
          let config, fingerprint = config_of req in
          (* the mapping cache keys on the raw graph's content digest,
             so sources that build one CDFG up to node ids share an
             entry; canonical renumbering gives them byte-identical jobs,
             so a hit answers what a cold compile would. check/sweep stay
             on the plain config *)
          let config = { config with Flow.renumber = true } in
          let verify = Option.value ~default:false (bool_field req "verify") in
          let result, digest, cached, resumed_from =
            mapped_compile t ~config ~fingerprint ~program ~verify ()
          in
          (result, Some digest, cached, resumed_from)
        | "check" ->
          let result, digest = op_check ?pool req in
          (result, Some digest, None, None)
        | _ ->
          let result, digest = op_sweep ?pool req in
          (result, Some digest, None, None)
      in
      ignore
        (Lru.add t.request_cache key { r_digest = digest; r_result = result });
      (result, digest, cached, resumed_from))
  | other -> raise (Bad_request (Printf.sprintf "unknown op %S" other))

(* Batch admission: answer request-cache hits and non-compile operations
   on the admission domain, compile the distinct misses on the pool
   (workers never touch the caches), then insert every result and
   assemble the responses in request order. *)
and op_batch t req =
  let requests =
    match Option.bind (Json.member "requests" req) Json.to_list with
    | Some rs -> rs
    | None -> raise (Bad_request "batch needs \"requests\"")
  in
  let admit sub =
    let start = Unix.gettimeofday () in
    let id = Option.value ~default:Json.Null (Json.member "id" sub) in
    let op =
      match str_field sub "op" with Some op -> op | None -> "compile"
    in
    if op <> "compile" then Answered (handle_one t ?pool:None sub)
    else begin
      t.n_requests <- t.n_requests + 1;
      match
        let program = program_of sub in
        let config, fingerprint = config_of sub in
        let config = { config with Flow.renumber = true } in
        let verify = Option.value ~default:false (bool_field sub "verify") in
        (program, config, fingerprint, verify)
      with
      | program, config, fingerprint, verify -> (
        let key = request_key sub in
        match Lru.find t.request_cache key with
        | Some entry ->
          Answered
            (envelope ~id ~op ?digest:entry.r_digest ~cached:"request"
               ~result:entry.r_result ~latency_us:(now_us start) ())
        | None ->
          Miss
            {
              a_id = id;
              a_key = key;
              a_config = config;
              a_fingerprint = fingerprint;
              a_program = program;
              a_verify = verify;
              a_start = start;
            })
      | exception Bad_request msg ->
        t.n_errors <- t.n_errors + 1;
        Answered
          (envelope ~id ~op ~error:msg ~result:Json.Null
             ~latency_us:(now_us start) ())
    end
  in
  let admitted = List.map admit requests in
  (* Distinct misses, in admission order. *)
  let uniq = ref [] in
  List.iter
    (function
      | Miss m -> if not (List.mem_assoc m.a_key !uniq) then
          uniq := (m.a_key, m) :: !uniq
      | Answered _ -> ())
    admitted;
  let uniq = List.rev !uniq in
  let outcomes =
    Pool.maybe t.pool
      (fun (_, m) ->
        match
          compute_compile ~config:m.a_config ~program:m.a_program
            ~verify:m.a_verify ()
        with
        | c -> Ok c
        | exception Flow.Flow_error msg -> Error msg)
      uniq
  in
  let results = Hashtbl.create 16 in
  List.iter2
    (fun (key, m) outcome ->
      (match outcome with
      | Ok c ->
        t.n_compiles <- t.n_compiles + 1;
        if not m.a_verify then cache_mapping t ~fingerprint:m.a_fingerprint c;
        ignore
          (Lru.add t.request_cache key
             { r_digest = Some c.c_digest; r_result = c.c_result })
      | Error _ -> ());
      Hashtbl.replace results key outcome)
    uniq outcomes;
  let answered_before = Hashtbl.create 16 in
  let finish = function
    | Answered env -> env
    | Miss m -> (
      match Hashtbl.find results m.a_key with
      | Ok c ->
        let cached =
          if Hashtbl.mem answered_before m.a_key then Some "request" else None
        in
        Hashtbl.replace answered_before m.a_key ();
        envelope ~id:m.a_id ~op:"compile" ~digest:c.c_digest ?cached
          ?resumed_from:c.c_resumed_from ~result:c.c_result
          ~latency_us:(now_us m.a_start) ()
      | Error msg ->
        t.n_errors <- t.n_errors + 1;
        envelope ~id:m.a_id ~op:"compile" ~error:("flow error: " ^ msg)
          ~result:Json.Null ~latency_us:(now_us m.a_start) ())
  in
  Json.Obj [ ("responses", Json.List (List.map finish admitted)) ]

and handle_one t ?pool req =
  let start = Unix.gettimeofday () in
  let id = Option.value ~default:Json.Null (Json.member "id" req) in
  let op = match str_field req "op" with Some op -> op | None -> "compile" in
  t.n_requests <- t.n_requests + 1;
  match handle_op t ?pool ~op req with
  | result, digest, cached, resumed_from ->
    envelope ~id ~op ?digest ?cached ?resumed_from ~result
      ~latency_us:(now_us start) ()
  | exception Bad_request msg ->
    t.n_errors <- t.n_errors + 1;
    envelope ~id ~op ~error:msg ~result:Json.Null ~latency_us:(now_us start) ()
  | exception Flow.Flow_error msg ->
    t.n_errors <- t.n_errors + 1;
    envelope ~id ~op ~error:("flow error: " ^ msg) ~result:Json.Null
      ~latency_us:(now_us start) ()

let handle t req = handle_one t ?pool:t.pool req

let handle_line t line =
  match Json.parse line with
  | req -> Json.to_string (handle t req)
  | exception Json.Parse_error msg ->
    t.n_errors <- t.n_errors + 1;
    Json.to_string
      (envelope ~id:Json.Null ~op:"parse" ~error:("bad request: " ^ msg)
         ~result:Json.Null ~latency_us:0 ())

(* {2 Serving loops} *)

let serve_channel t ic oc =
  let rec loop () =
    if t.running then
      match input_line ic with
      | line ->
        if String.trim line <> "" then begin
          output_string oc (handle_line t line);
          output_char oc '\n';
          flush oc
        end;
        loop ()
      | exception End_of_file -> ()
  in
  loop ()

type client = { fd : Unix.file_descr; buf : Buffer.t }

let serve_socket t ~path =
  if Sys.file_exists path then Unix.unlink path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let clients = ref [] in
  let drop client =
    clients := List.filter (fun c -> c.fd <> client.fd) !clients;
    try Unix.close client.fd with Unix.Unix_error _ -> ()
  in
  let send client text =
    try
      let bytes = Bytes.of_string (text ^ "\n") in
      let rec push off =
        if off < Bytes.length bytes then
          push (off + Unix.write client.fd bytes off (Bytes.length bytes - off))
      in
      push 0
    with Unix.Unix_error _ -> drop client
  in
  (* Answer every complete line currently in the client's buffer. *)
  let drain client =
    let rec next () =
      let text = Buffer.contents client.buf in
      match String.index_opt text '\n' with
      | None -> ()
      | Some i ->
        let line = String.sub text 0 i in
        Buffer.clear client.buf;
        Buffer.add_substring client.buf text (i + 1)
          (String.length text - i - 1);
        if String.trim line <> "" then send client (handle_line t line);
        if t.running then next ()
    in
    next ()
  in
  let chunk = Bytes.create 65536 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Unix.unlink path)
    (fun () ->
      while t.running do
        let fds = listen_fd :: List.map (fun c -> c.fd) !clients in
        match Unix.select fds [] [] 1.0 with
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen_fd then begin
                let client_fd, _ = Unix.accept listen_fd in
                clients :=
                  { fd = client_fd; buf = Buffer.create 256 } :: !clients
              end
              else
                match List.find_opt (fun c -> c.fd = fd) !clients with
                | None -> ()
                | Some client -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> drop client
                  | n ->
                    Buffer.add_subbytes client.buf chunk 0 n;
                    drain client
                  | exception Unix.Unix_error _ -> drop client))
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)
