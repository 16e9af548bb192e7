module Arch = Fpfa_arch.Arch
module Obs = Fpfa_obs.Obs

let c_maps = Obs.counter "flow.maps"
let c_cluster_reused = Obs.counter "flow.cluster_reused"
let c_schedule_reused = Obs.counter "flow.schedule_reused"

type config = {
  tile : Arch.tile;
  caps : Arch.alu_caps option;
  cluster_with : caps:Arch.alu_caps -> Cdfg.Graph.t -> Mapping.Cluster.t;
  alloc_options : Mapping.Alloc.options;
  max_unroll : int;
  delete_locals : bool;
  verify_each : bool;
  bitopt : bool;
      (** Certified bit-level optimisation after simplification
          ({!Transform.Bitopt}): every claim batch is re-proved by the
          {!Fpfa_analysis.Verify.bits} replay before it is applied,
          unconditionally — a rewrite the recomputed facts cannot
          justify fails the flow blaming rule "bitopt". *)
  bitopt_width : int;
      (** Signed input width (bits) the bit-level analysis assumes for
          region inputs — the same knob as [fpfa_map --check-width].
          Semantics-changing (wider inputs justify fewer rewrites), so
          it keys the serve fingerprint alongside the [bitopt] toggle
          and both the stage and its verification replay use it. *)
  renumber : bool;
      (** Canonically renumber the minimised graph
          ({!Cdfg.Serialize.renumber}) so isomorphic compiles map to
          byte-identical jobs. The serve daemon turns this on; the
          one-shot CLI flow leaves it off. *)
}

let default_config =
  {
    tile = Arch.paper_tile;
    caps = None;
    cluster_with = (fun ~caps g -> Mapping.Cluster.run ~caps g);
    alloc_options = Mapping.Alloc.default_options;
    max_unroll = 4096;
    delete_locals = false;
    verify_each = false;
    bitopt = true;
    bitopt_width = 16;
    renumber = false;
  }

type result = {
  source : string;
  func : Cfront.Ast.func;
  raw_graph : Cdfg.Graph.t;
  graph : Cdfg.Graph.t;
  simplify_report : Transform.Simplify.report;
  bitopt_report : Transform.Bitopt.report;
  clustering : Mapping.Cluster.t;
  schedule : Mapping.Sched.t;
  job : Mapping.Job.t;
  metrics : Mapping.Metrics.t;
}

exception Flow_error of string

(* Every stage is an observability span: `--trace` renders the whole flow
   as a timeline, `--stats` aggregates per-stage time. The exception
   mapping below is unaffected — Obs.span re-raises after closing. *)
let stage name f =
  try Obs.span ~cat:"flow" name f with
  | Flow_error _ as e -> raise e
  | Cfront.Lexer.Error (msg, pos) ->
    raise
      (Flow_error
         (Printf.sprintf "%s: lexical error at %d:%d: %s" name pos.Cfront.Token.line
            pos.Cfront.Token.col msg))
  | Cfront.Parser.Error (msg, pos) ->
    raise
      (Flow_error
         (Printf.sprintf "%s: syntax error at %d:%d: %s" name pos.Cfront.Token.line
            pos.Cfront.Token.col msg))
  | Cfront.Sema.Error msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Cfront.Inline.Error msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Cfront.Unroll.Too_many_iterations n ->
    raise (Flow_error (Printf.sprintf "%s: loop exceeds %d iterations" name n))
  | Cdfg.Builder.Unsupported msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Cdfg.Graph.Invalid msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Mapping.Legalize.Unmappable msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Mapping.Cluster.Clustering_error msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Mapping.Sched.Scheduling_error msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Mapping.Alloc.Allocation_error msg -> raise (Flow_error (name ^ ": " ^ msg))
  | Transform.Pass.Verification_failed { rule; error } ->
    raise
      (Flow_error
         (Printf.sprintf "%s: rule %s broke an invariant: %s" name rule
            (Printexc.to_string error)))

let caps_of config =
  match config.caps with Some caps -> caps | None -> config.tile.Arch.alu

(* The certified bit-level optimisation stage of {!Staged.minimise}.
   Each round: analyse, derive a claim batch, have
   {!Fpfa_analysis.Verify.bits} re-prove the whole batch from
   independently recomputed facts (refusal raises, failing the flow
   blaming rule "bitopt"), apply, and let the standard rules clean up
   the dirty region: the worklist is seeded with the nodes the batch
   touched ({!Transform.Simplify.minimize}[ ~seed]), so the cleanup
   never revisits the rest of the graph. The re-proof is unconditional —
   [verify_each] only adds the structural hook to the cleanup run. *)
let bitopt_stage config graph =
  if not config.bitopt then Transform.Bitopt.empty_report
  else
    stage "bitopt" (fun () ->
        let max_rounds = 4 in
        let rec loop rounds acc =
          if rounds >= max_rounds then (rounds, acc)
          else
            let facts =
              Transform.Absdom.analyze ~width:config.bitopt_width graph
            in
            let claims =
              Transform.Bitopt.derive (Transform.Absdom.value facts) graph
            in
            if claims = [] then (rounds, acc)
            else begin
              let r =
                Transform.Bitopt.apply
                  ~verify:(fun g cs ->
                    Fpfa_analysis.Verify.bits ~width:config.bitopt_width g cs)
                  graph claims
              in
              let defs, uses = Cdfg.Graph.drain_dirty graph in
              let seed = List.filter (Cdfg.Graph.mem graph) (defs @ uses) in
              let verify =
                if config.verify_each then
                  Some (Fpfa_analysis.Verify.pass_hook ())
                else None
              in
              ignore
                (Transform.Simplify.minimize ~seed ~validate:false ?verify
                   graph);
              loop (rounds + 1) (Transform.Bitopt.merge_report acc r)
            end
        in
        let rounds, report = loop 0 Transform.Bitopt.empty_report in
        (* only an applied batch changes the graph; an unchanged one has
           passed "simplify-validate" already *)
        if rounds > 0 then Cdfg.Graph.validate graph;
        report)

(* A compilation as a value: the flow's checkpoints (minimised graph,
   clustering, schedule, allocation) held alongside the config that
   produced them, so a caller can stop between phases, hand the value to
   another domain, or re-enter at the first phase a config change
   actually dirties (the serve daemon's near-miss path). The phase
   bodies below are the same stage spans map_source always ran — the
   one-shot entry points are now [run] to completion over this record. *)
module Staged = struct
  type phase = Built | Minimised | Clustered | Scheduled | Allocated

  let phase_name = function
    | Built -> "built"
    | Minimised -> "minimised"
    | Clustered -> "clustered"
    | Scheduled -> "scheduled"
    | Allocated -> "allocated"

  (* What the rewinds of one minimised checkpoint share: the last
     clustering computed from its graph, the config that clustering ran
     under, and the schedules computed from that clustering, at most one
     per ALU count. Every field is validated before it is published. *)
  type shared = {
    sh_config : config;
    sh_clustering : Mapping.Cluster.t;
    sh_schedules : (int * Mapping.Sched.t) list;  (** ALU count -> schedule *)
  }

  type t = {
    s_config : config;
    s_source : string;
    s_func : Cfront.Ast.func;
    s_raw : Cdfg.Graph.t;
        (** validated once where it entered (by the builder, or by
            [of_graph]); never mutated *)
    s_min :
      (Cdfg.Graph.t
      * Transform.Simplify.report
      * Transform.Bitopt.report
      * shared option Atomic.t)
      option;
        (** the minimised graph, its reports, and what its rewinds share.
            The cell is shared by every value [rewind] derives while it
            keeps [s_min], so tile points that leave the ALU data path
            alone cluster once, and those that also keep the ALU count
            schedule once; it is atomic because rewinds of one frozen
            checkpoint advance on several domains. *)
    s_clustering : Mapping.Cluster.t option;
    s_schedule : Mapping.Sched.t option;
    s_alloc : (Mapping.Job.t * Mapping.Metrics.t) option;
  }

  let phase s =
    match (s.s_alloc, s.s_schedule, s.s_clustering, s.s_min) with
    | Some _, _, _, _ -> Allocated
    | None, Some _, _, _ -> Scheduled
    | None, None, Some _, _ -> Clustered
    | None, None, None, Some _ -> Minimised
    | None, None, None, None -> Built

  let config s = s.s_config
  let raw_graph s = s.s_raw

  (* Unroll and build. [source] is what [to_result] reports: the caller's
     text, or (when [None]) the unrolled function rendered back to C for
     {!conforms_to_interp} and {!audit} to re-parse. *)
  let front ~config ?source func =
    let func =
      stage "unroll" (fun () ->
          Cfront.Unroll.unroll_func ~max_iterations:config.max_unroll func)
    in
    let raw =
      stage "build" (fun () ->
          Cdfg.Builder.build_func ~delete_locals:config.delete_locals func)
    in
    {
      s_config = config;
      s_source =
        (match source with
        | Some source -> source
        | None -> Cfront.Ast.program_to_string [ func ]);
      s_func = func;
      s_raw = raw;
      s_min = None;
      s_clustering = None;
      s_schedule = None;
      s_alloc = None;
    }

  let of_func ~config func = front ~config func

  let of_source ~config ?(func = "main") source =
    let program = stage "parse" (fun () -> Cfront.Parser.parse_program source) in
    let program = stage "inline" (fun () -> Cfront.Inline.program program) in
    let f =
      match
        List.find_opt
          (fun (f : Cfront.Ast.func) -> String.equal f.Cfront.Ast.name func)
          program
      with
      | Some f -> f
      | None ->
        raise (Flow_error (Printf.sprintf "no function %s in source" func))
    in
    front ~config ~source f

  let of_graph ~config g =
    let raw = Cdfg.Graph.copy g in
    stage "validate" (fun () -> Cdfg.Graph.validate raw);
    let placeholder =
      {
        Cfront.Ast.name = Cdfg.Graph.name g;
        params = [];
        body = [];
        returns_value = false;
      }
    in
    {
      s_config = config;
      s_source = "";
      s_func = placeholder;
      s_raw = raw;
      s_min = None;
      s_clustering = None;
      s_schedule = None;
      s_alloc = None;
    }

  let minimise s =
    let config = s.s_config in
    let graph = Cdfg.Graph.copy s.s_raw in
    let simplify_report =
      stage "simplify" (fun () ->
          (* Under verify_each the structural verifier audits the touched
             neighbourhood after every rule firing; whole-graph invariants
             are still covered once by "simplify-validate" below. *)
          let verify =
            if config.verify_each then Some (Fpfa_analysis.Verify.pass_hook ())
            else None
          in
          Transform.Simplify.minimize ~validate:false ?verify graph)
    in
    stage "simplify-validate" (fun () -> Cdfg.Graph.validate graph);
    let bitopt_report = bitopt_stage config graph in
    (* Canonical renumbering last: isomorphic minimised graphs become
       member-for-member equal, so the deterministic mapping phases
       produce byte-identical jobs for them. *)
    let graph =
      if config.renumber then
        stage "renumber" (fun () -> Cdfg.Serialize.renumber graph)
      else graph
    in
    {
      s with
      s_min =
        Some
          ( graph,
            simplify_report,
            bitopt_report,
            Atomic.make None );
    }

  (* What each phase reads from the config. [cluster_with] is a closure,
     so it compares physically: configs that share the field value
     (variant records, [{c with tile = ...}] updates) rewind precisely, a
     freshly built closure conservatively re-runs. The front end's fields
     are spelled out once, as text, for [same_frontend] and
     [frontend_key]. *)
  let frontend_fields c = Printf.sprintf "u%d:l%b" c.max_unroll c.delete_locals
  let same_frontend a b = String.equal (frontend_fields a) (frontend_fields b)

  (* The function name is length-prefixed, so no (func, source) pair
     spells another's key. *)
  let frontend_key ~config ~func source =
    Digest.string
      (Printf.sprintf "%s\000%d:%s%s" (frontend_fields config)
         (String.length func) func source)

  let same_minimise a b =
    a.verify_each = b.verify_each
    && a.bitopt = b.bitopt
    && a.bitopt_width = b.bitopt_width
    && a.renumber = b.renumber

  let same_cluster a b = a.cluster_with == b.cluster_with && caps_of a = caps_of b
  let same_schedule a b = a.tile.Arch.alu_count = b.tile.Arch.alu_count
  let same_alloc a b = a.alloc_options = b.alloc_options && a.tile = b.tile

  (* Replaces the cell's contents with [clustering], which ran under
     [config], and returns it. When another domain has meanwhile
     published a clustering under an equal config, that one is returned
     instead, so the rewinds of one checkpoint converge on one clustering
     and share its schedules. *)
  let rec publish_clustering cell seen config clustering =
    let next =
      Some { sh_config = config; sh_clustering = clustering; sh_schedules = [] }
    in
    if Atomic.compare_and_set cell seen next then clustering
    else
      match Atomic.get cell with
      | Some sh when same_cluster sh.sh_config config -> sh.sh_clustering
      | now -> publish_clustering cell now config clustering

  let schedule_of shared clustering alu_count =
    match shared with
    | Some sh when sh.sh_clustering == clustering ->
      List.assoc_opt alu_count sh.sh_schedules
    | Some _ | None -> None

  (* Adds [schedule] to the cell while it still holds [clustering] and no
     schedule for [alu_count]. A lost race re-reads the cell; once another
     domain has published a schedule for this ALU count, or a clustering
     has replaced this one, ours is simply not shared. *)
  let rec publish_schedule cell clustering alu_count schedule =
    match Atomic.get cell with
    | Some sh as seen
      when sh.sh_clustering == clustering
           && not (List.mem_assoc alu_count sh.sh_schedules) ->
      let next =
        Some { sh with sh_schedules = (alu_count, schedule) :: sh.sh_schedules }
      in
      if not (Atomic.compare_and_set cell seen next) then
        publish_schedule cell clustering alu_count schedule
    | Some _ | None -> ()

  (* A clustering or a schedule is validated once, where it is computed
     and before it is published to the shared cell, so the rewinds that
     reuse it skip the check and a failed one is never shared. *)
  let advance s =
    match phase s with
    | Built -> minimise s
    | Minimised ->
      let config = s.s_config in
      let graph, _, _, shared = Option.get s.s_min in
      let clustering =
        match Atomic.get shared with
        | Some sh when same_cluster sh.sh_config config ->
          Obs.incr c_cluster_reused;
          sh.sh_clustering
        | seen ->
          let caps = caps_of config in
          let clustering =
            stage "cluster" (fun () -> config.cluster_with ~caps graph)
          in
          stage "cluster-validate" (fun () ->
              Mapping.Cluster.validate clustering caps);
          publish_clustering shared seen config clustering
      in
      { s with s_clustering = Some clustering }
    | Clustered ->
      let clustering = Option.get s.s_clustering in
      let alu_count = s.s_config.tile.Arch.alu_count in
      let _, _, _, shared = Option.get s.s_min in
      let schedule =
        match schedule_of (Atomic.get shared) clustering alu_count with
        | Some schedule ->
          Obs.incr c_schedule_reused;
          schedule
        | None ->
          let schedule =
            stage "schedule" (fun () -> Mapping.Sched.run ~alu_count clustering)
          in
          stage "schedule-validate" (fun () ->
              Mapping.Sched.validate schedule ~alu_count);
          publish_schedule shared clustering alu_count schedule;
          schedule
      in
      { s with s_schedule = Some schedule }
    | Scheduled ->
      let job =
        stage "allocate" (fun () ->
            Mapping.Alloc.run ~options:s.s_config.alloc_options
              ~tile:s.s_config.tile (Option.get s.s_schedule))
      in
      { s with s_alloc = Some (job, Mapping.Metrics.of_job job) }
    | Allocated -> s

  let run s =
    if phase s = Allocated then s
    else begin
      Obs.incr c_maps;
      Obs.span ~cat:"flow" "map"
        ~args:
          [
            ("graph", Obs.Str (Cdfg.Graph.name s.s_raw));
            ("nodes", Obs.Int (Cdfg.Graph.node_count s.s_raw));
          ]
      @@ fun () ->
      let rec go s = if phase s = Allocated then s else go (advance s) in
      go s
    end

  let to_result s =
    match (s.s_min, s.s_clustering, s.s_schedule, s.s_alloc) with
    | ( Some (graph, simplify_report, bitopt_report, _),
        Some clustering,
        Some schedule,
        Some (job, metrics) ) ->
      {
        source = s.s_source;
        func = s.s_func;
        raw_graph = s.s_raw;
        graph;
        simplify_report;
        bitopt_report;
        clustering;
        schedule;
        job;
        metrics;
      }
    | _ ->
      raise
        (Flow_error
           (Printf.sprintf "staged compilation is only %s; run it to \
                            completion first"
              (phase_name (phase s))))

  let rewind s ~config =
    let old = s.s_config in
    if not (same_frontend old config) then None
    else begin
      let keep_min = same_minimise old config in
      let keep_clu = keep_min && same_cluster old config in
      let keep_sched = keep_clu && same_schedule old config in
      let keep_alloc = keep_sched && same_alloc old config in
      Some
        {
          s with
          s_config = config;
          s_min = (if keep_min then s.s_min else None);
          s_clustering = (if keep_clu then s.s_clustering else None);
          s_schedule = (if keep_sched then s.s_schedule else None);
          s_alloc = (if keep_alloc then s.s_alloc else None);
        }
    end

  let freeze s =
    Cdfg.Graph.freeze s.s_raw;
    match s.s_min with Some (g, _, _, _) -> Cdfg.Graph.freeze g | None -> ()
end

let map_func ?(config = default_config) func =
  Staged.to_result (Staged.run (Staged.of_func ~config func))

let map_source ?(config = default_config) ?(func = "main") source =
  Staged.to_result (Staged.run (Staged.of_source ~config ~func source))

let map_graph ?(config = default_config) g =
  Staged.to_result (Staged.run (Staged.of_graph ~config g))

(* All diagnostics for one mapped program: the structure rules on the
   raw and minimised graphs, mappability + statespace legality + lints on
   the minimised graph, and the cluster, schedule and allocation rules.
   Each graph's structure is checked once; the minimised graph's result
   also decides whether the facts can be built. One Absdom fixpoint per
   graph: its facts feed the bit lints and give the address analysis,
   shared by the statespace replay and the lints, its intervals. The
   diagnostic families are independent reads of the (frozen) result, so
   with a pool they run concurrently; [Diag.sort] makes the merged output
   order-independent. *)
let audit ?pool ~config result =
  Obs.span ~cat:"flow" "audit" @@ fun () ->
  let caps = caps_of config in
  (match pool with
  | Some _ ->
    Cdfg.Graph.freeze result.raw_graph;
    Cdfg.Graph.freeze result.graph
  | None -> ());
  let structure = Fpfa_analysis.Verify.structure result.graph in
  let facts =
    if Fpfa_diag.Diag.errors structure = [] then
      let bits = Fpfa_analysis.Bits.analyze result.graph in
      Some
        ( Fpfa_analysis.Addr.of_facts
            (Fpfa_analysis.Bits.forward bits)
            result.graph,
          bits )
    else None
  in
  let addr = Option.map fst facts in
  let families : (unit -> Fpfa_diag.Diag.t list) list =
    [
      (fun () -> Fpfa_analysis.Verify.structure result.raw_graph);
      (fun () -> structure);
      (fun () -> Fpfa_analysis.Verify.mappability result.graph);
      (fun () ->
        (* the replay walks data edges in topological order: only a
           structurally sound graph has the facts it needs *)
        match addr with
        | Some facts -> Fpfa_analysis.Verify.statespace ~facts result.graph
        | None -> []);
      (fun () ->
        match addr with
        | Some facts -> Fpfa_analysis.Lint.run ~facts result.graph
        | None -> []);
      (fun () ->
        Obs.span ~cat:"analysis" "mapcheck-cluster" @@ fun () ->
        Mapping.Cluster.check_diags result.clustering caps);
      (fun () ->
        Obs.span ~cat:"analysis" "mapcheck-sched" @@ fun () ->
        Mapping.Sched.check_diags result.schedule
          ~alu_count:config.tile.Arch.alu_count);
      (fun () ->
        Obs.span ~cat:"analysis" "mapcheck-alloc" @@ fun () ->
        Fpfa_sim.Sim.check_diags result.job);
      (fun () ->
        (* loop-carried dependence family: needs the pre-unroll source
           (the mapped func is already unrolled flat), so graph-only
           results audit without it *)
        if result.source = "" then []
        else
          Fpfa_analysis.Depend.diagnostics
            (Fpfa_analysis.Depend.analyze_source ~tile:config.tile
               ~max_iterations:config.max_unroll
               ~func:result.func.Cfront.Ast.name result.source));
      (fun () ->
        (* bit-level family: masked-away known-set bits at stores,
           decided select conditions, datapath-width overflows *)
        match facts with
        | Some (_, bits) ->
          Fpfa_analysis.Bits.diagnostics ~facts:bits result.graph
        | None -> []);
    ]
  in
  let diags =
    Fpfa_exec.Pool.maybe pool (fun f -> f ()) families
    |> List.concat |> Fpfa_diag.Diag.sort
  in
  (diags, facts)

let verify ?(memory_init = []) result =
  Obs.span ~cat:"flow" "verify" @@ fun () ->
  let expected = Cdfg.Eval.run ~memory_init result.raw_graph in
  let minimised = Cdfg.Eval.run ~memory_init result.graph in
  Cdfg.Eval.equal_result expected minimised
  && Fpfa_sim.Sim.conforms ~memory_init result.job

let conforms_to_interp ?(memory_init = []) result =
  Obs.span ~cat:"flow" "verify-interp" @@ fun () ->
  let program =
    Cfront.Inline.program (Cfront.Parser.parse_program result.source)
  in
  match Cfront.Interp.run_main_on_regions memory_init program with
  | exception Cfront.Interp.Runtime_error _ -> false
  | state ->
    let memory, _ = Fpfa_sim.Sim.run ~memory_init result.job in
    (* The tile leaves a return value in memory under no fixed name; the
       evaluator's named outputs stand in for it. *)
    let named = (Cdfg.Eval.run ~memory_init result.graph).Cdfg.Eval.named in
    Cdfg.Eval.conforms_to_interp ~memory_init state { Cdfg.Eval.memory; named }

let pp_summary fmt r =
  Format.fprintf fmt
    "@[<v>%s: %d nodes -> %d nodes, %d clusters, %d levels (cp %d), %a@]"
    (Cdfg.Graph.name r.graph)
    r.simplify_report.Transform.Simplify.before.Cdfg.Graph.total
    r.simplify_report.Transform.Simplify.after.Cdfg.Graph.total
    (Array.length r.clustering.Mapping.Cluster.clusters)
    (Mapping.Sched.level_count r.schedule)
    (Mapping.Sched.critical_path_levels r.schedule)
    Mapping.Metrics.pp r.metrics
