module Arch = Fpfa_arch.Arch
module Obs = Fpfa_obs.Obs

let c_maps = Obs.counter "flow.maps"

type simplifier =
  | Worklist of Transform.Pass.rule list
  | Fixpoint of Transform.Pass.t list

type config = {
  tile : Arch.tile;
  caps : Arch.alu_caps option;
  cluster_with : caps:Arch.alu_caps -> Cdfg.Graph.t -> Mapping.Cluster.t;
  simplify : simplifier;
  alloc_options : Mapping.Alloc.options;
  max_unroll : int;
  delete_locals : bool;
  verify_each : bool;
  disambiguate : bool;
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
  incremental : bool;
      (** Keep the pre-disambiguation minimised snapshot for
          {!Staged.rewind_patched} and canonically renumber the minimised
          graph ({!Cdfg.Serialize.renumber}) so isomorphic compiles map
          to byte-identical jobs. The serve daemon turns this on; the
          one-shot CLI flow leaves it off. *)
}

let default_config =
  {
    tile = Arch.paper_tile;
    caps = None;
    cluster_with = (fun ~caps g -> Mapping.Cluster.run ~caps g);
    simplify = Worklist Transform.Simplify.default_rules;
    alloc_options = Mapping.Alloc.default_options;
    max_unroll = 4096;
    delete_locals = false;
    verify_each = false;
    disambiguate = true;
    bitopt = true;
    bitopt_width = 16;
    incremental = false;
  }

type result = {
  source : string;
  func : Cfront.Ast.func;
  raw_graph : Cdfg.Graph.t;
  graph : Cdfg.Graph.t;
  simplify_report : Transform.Simplify.report;
  bitopt_report : Transform.Bitopt.report;
  disambig_report : Transform.Disambig.report;
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

(* Runs [a] and [b], overlapped on the pool when one is supplied. The
   sequential observable behaviour is preserved: results come back in
   order and, when both raise, [a]'s exception wins (the pool re-raises
   the lowest-index failure, which is exactly what [a (); b ()] would
   surface). *)
let par2 pool a b =
  match pool with
  | None ->
    let ra = a () in
    (ra, b ())
  | Some p -> (
    match
      Fpfa_exec.Pool.map p
        (fun f -> f ())
        [ (fun () -> `A (a ())); (fun () -> `B (b ())) ]
    with
    | [ `A ra; `B rb ] -> (ra, rb)
    | _ -> assert false)

let caps_of config =
  match config.caps with Some caps -> caps | None -> config.tile.Arch.alu

(* The certified bit-level optimisation stage, run identically by the
   cold path ({!Staged.minimise}) and the incremental re-entry
   ({!Staged.rewind_patched}) so a patched compile stays byte-identical
   to a cold one. Each round: analyse, derive a claim batch, have
   {!Fpfa_analysis.Verify.bits} re-prove the whole batch from
   independently recomputed facts (refusal raises, failing the flow
   blaming rule "bitopt"), apply, and let the standard rules clean up
   the dirty region. The re-proof is unconditional — [verify_each] only
   adds the structural hook to the cleanup run. *)
let bitopt_stage config graph =
  if not config.bitopt then Transform.Bitopt.empty_report
  else
    stage "bitopt" (fun () ->
        let max_rounds = 4 in
        let rec loop rounds acc =
          if rounds >= max_rounds then acc
          else
            let facts =
              Transform.Absdom.analyze ~width:config.bitopt_width graph
            in
            let claims =
              Transform.Bitopt.derive (Transform.Absdom.value facts) graph
            in
            if claims = [] then acc
            else begin
              let r =
                Transform.Bitopt.apply
                  ~verify:(fun g cs ->
                    Fpfa_analysis.Verify.bits ~width:config.bitopt_width g cs)
                  graph claims
              in
              let defs, uses = Cdfg.Graph.drain_dirty graph in
              let seed =
                Cdfg.Graph.Id_set.union defs uses
                |> Cdfg.Graph.Id_set.elements
                |> List.filter (Cdfg.Graph.mem graph)
              in
              let verify =
                if config.verify_each then
                  Some (Fpfa_analysis.Verify.pass_hook ())
                else None
              in
              (match config.simplify with
              | Worklist rules ->
                ignore
                  (Transform.Simplify.minimize ~rules ~seed ~validate:false
                     ?verify graph)
              | Fixpoint passes ->
                ignore
                  (Transform.Simplify.minimize ~passes ~validate:false ?verify
                     graph));
              loop (rounds + 1) (Transform.Bitopt.merge_report acc r)
            end
        in
        let report = loop 0 Transform.Bitopt.empty_report in
        Cdfg.Graph.validate graph;
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

  type t = {
    s_config : config;
    s_source : string;
    s_func : Cfront.Ast.func;
    s_raw : Cdfg.Graph.t;  (** validated at minimise; never mutated *)
    s_min :
      (Cdfg.Graph.t
      * Transform.Simplify.report
      * Transform.Bitopt.report
      * Transform.Disambig.report)
      option;
    s_preprune : (Cdfg.Graph.t * int array) option;
        (** [config.incremental] only: the minimised graph {e before}
            disambiguation and renumbering, plus the raw-id ->
            snapshot-id translation {!Cdfg.Diff.apply} grafts through. *)
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

  let of_func ~config func =
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
      s_source = Cfront.Ast.program_to_string [ func ];
      s_func = func;
      s_raw = raw;
      s_min = None;
      s_preprune = None;
      s_clustering = None;
      s_schedule = None;
      s_alloc = None;
    }

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
    { (of_func ~config f) with s_source = source }

  let of_graph ~config g =
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
      s_raw = Cdfg.Graph.copy g;
      s_min = None;
      s_preprune = None;
      s_clustering = None;
      s_schedule = None;
      s_alloc = None;
    }

  let minimise ?pool s =
    let config = s.s_config in
    let graph =
      stage "validate" (fun () ->
          Cdfg.Graph.validate s.s_raw;
          Cdfg.Graph.copy s.s_raw)
    in
    let simplify_report =
      stage "simplify" (fun () ->
          (* Under verify_each the structural verifier audits the touched
             neighbourhood after every rule firing; whole-graph invariants
             are still covered once by "simplify-validate" below. *)
          let verify =
            if config.verify_each then Some (Fpfa_analysis.Verify.pass_hook ())
            else None
          in
          match config.simplify with
          | Worklist rules ->
            Transform.Simplify.minimize ~rules ~validate:false ?verify graph
          | Fixpoint passes ->
            Transform.Simplify.minimize ~passes ~validate:false ?verify graph)
    in
    stage "simplify-validate" (fun () -> Cdfg.Graph.validate graph);
    (* The incremental snapshot is taken before disambiguation on
       purpose: pruned anti-dependence edges change what the simplifier
       rules may observe, so grafting onto a pruned graph could
       re-minimise differently than a cold compile. Surviving ids in the
       snapshot are raw ids (the simplifier mutates the copy in place and
       never reuses an id), hence the identity translation. *)
    let preprune =
      if config.incremental then
        Some
          ( Cdfg.Graph.copy graph,
            Array.init (Cdfg.Graph.id_bound graph) Fun.id )
      else None
    in
    let bitopt_report = bitopt_stage config graph in
    let disambig_report =
      stage "disambig" (fun () ->
          if config.disambiguate then begin
            (* Address-analysis pruning of conservative anti-dependence
               edges. Under verify_each the structural hook is augmented
               with the whole-graph statespace-legality replay: an illegal
               edge removal fails the flow blaming rule "disambig". *)
            let verify =
              if config.verify_each then
                Some
                  (fun rule g touched ->
                    Fpfa_analysis.Verify.pass_hook () rule g touched;
                    match
                      Fpfa_diag.Diag.errors (Fpfa_analysis.Verify.statespace g)
                    with
                    | [] -> ()
                    | errs -> raise (Fpfa_diag.Diag.Failed errs))
              else None
            in
            Fpfa_analysis.Addr.prune ?verify graph
          end
          else Transform.Disambig.empty_report)
    in
    (* Canonical renumbering last: isomorphic minimised graphs become
       member-for-member equal, so the deterministic mapping phases
       produce byte-identical jobs for them — what makes an incremental
       re-minimisation indistinguishable from a cold one downstream. *)
    let graph =
      if config.incremental then
        stage "renumber" (fun () -> Cdfg.Serialize.renumber graph)
      else graph
    in
    (* With a pool, no pass mutates the graph beyond this point: freeze it
       so the overlapped validate/advance stages below (and any later
       {!audit}) can read it from several domains without copying. Without
       a pool the graph stays mutable — callers such as the disambig
       idempotence tests re-run passes on [result.graph]. *)
    (match pool with Some _ -> Cdfg.Graph.freeze graph | None -> ());
    {
      s with
      s_min = Some (graph, simplify_report, bitopt_report, disambig_report);
      s_preprune = preprune;
    }

  (* Each validator only reads the artifact the preceding stage produced,
     so it can run concurrently with the stage that consumes the same
     artifact: cluster-validate with schedule, schedule-validate with
     allocate. *)
  let advance ?pool s =
    match phase s with
    | Built -> minimise ?pool s
    | Minimised ->
      let graph, _, _, _ = Option.get s.s_min in
      let caps = caps_of s.s_config in
      let clustering =
        stage "cluster" (fun () -> s.s_config.cluster_with ~caps graph)
      in
      { s with s_clustering = Some clustering }
    | Clustered ->
      let clustering = Option.get s.s_clustering in
      let caps = caps_of s.s_config in
      let (), schedule =
        par2 pool
          (fun () ->
            stage "cluster-validate" (fun () ->
                Mapping.Cluster.validate clustering caps))
          (fun () ->
            stage "schedule" (fun () ->
                Mapping.Sched.run ~alu_count:s.s_config.tile.Arch.alu_count
                  clustering))
      in
      { s with s_schedule = Some schedule }
    | Scheduled ->
      let schedule = Option.get s.s_schedule in
      let (), job =
        par2 pool
          (fun () ->
            stage "schedule-validate" (fun () ->
                Mapping.Sched.validate schedule
                  ~alu_count:s.s_config.tile.Arch.alu_count))
          (fun () ->
            stage "allocate" (fun () ->
                Mapping.Alloc.run ~options:s.s_config.alloc_options
                  ~tile:s.s_config.tile schedule))
      in
      { s with s_alloc = Some (job, Mapping.Metrics.of_job job) }
    | Allocated -> s

  let run ?pool s =
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
      let rec go s = if phase s = Allocated then s else go (advance ?pool s) in
      go s
    end

  let to_result s =
    match (s.s_min, s.s_clustering, s.s_schedule, s.s_alloc) with
    | ( Some (graph, simplify_report, bitopt_report, disambig_report),
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
        disambig_report;
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

  (* What each phase reads from the config. [simplify] and [cluster_with]
     carry closures, so those compare physically: configs that share the
     field value (variant records, [{c with tile = ...}] updates) rewind
     precisely, a freshly built closure conservatively re-runs. *)
  let same_frontend a b =
    a.max_unroll = b.max_unroll && a.delete_locals = b.delete_locals

  let same_minimise a b =
    a.simplify == b.simplify
    && a.verify_each = b.verify_each
    && a.disambiguate = b.disambiguate
    && a.bitopt = b.bitopt
    && a.bitopt_width = b.bitopt_width
    && a.incremental = b.incremental

  let same_cluster a b = a.cluster_with == b.cluster_with && caps_of a = caps_of b
  let same_schedule a b = a.tile.Arch.alu_count = b.tile.Arch.alu_count
  let same_alloc a b = a.alloc_options = b.alloc_options && a.tile = b.tile

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
          s_preprune = (if keep_min then s.s_preprune else None);
          s_clustering = (if keep_clu then s.s_clustering else None);
          s_schedule = (if keep_sched then s.s_schedule else None);
          s_alloc = (if keep_alloc then s.s_alloc else None);
        }
    end

  (* Incremental re-entry: instead of minimising [fresh.s_raw] from
     scratch, diff it against the cached compile's raw graph, graft the
     changed cone onto the cached pre-disambiguation snapshot, and drain
     the worklist from only the patched region. Everything downstream of
     Minimised (disambig, renumbering, cluster/schedule/allocate) then
     runs exactly as in a cold compile — on a graph that is isomorphic to
     what the cold compile would have minimised, hence (after canonical
     renumbering) producing a byte-identical job. Returns the re-entered
     staged value plus the dirty-seed size; [Error] means the caller
     should compile cold (reason included). *)
  let rewind_patched cached ~fresh =
    let config = fresh.s_config in
    match (cached.s_preprune, config.simplify, config.incremental) with
    | None, _, _ -> Error "cached compile kept no incremental snapshot"
    | _, Fixpoint _, _ -> Error "legacy fixpoint engine cannot run seeded"
    | _, _, false -> Error "config does not enable incremental compilation"
    | Some (pre, translate), Worklist rules, true -> (
      match
        Cdfg.Diff.diff ~old_raw:cached.s_raw ~fresh:fresh.s_raw ()
      with
      | Error e -> Error e
      | Ok patch -> (
        let onto = Cdfg.Graph.copy pre in
        match Cdfg.Diff.apply patch ~fresh:fresh.s_raw ~translate ~onto with
        | Error e -> Error e
        | Ok (seed, forward) ->
          let simplify_report =
            stage "simplify-incr" (fun () ->
                let verify =
                  if config.verify_each then
                    Some (Fpfa_analysis.Verify.pass_hook ())
                  else None
                in
                Transform.Simplify.minimize ~rules ~seed ~validate:false
                  ?verify onto)
          in
          stage "simplify-validate" (fun () -> Cdfg.Graph.validate onto);
          let preprune = Some (Cdfg.Graph.copy onto, forward) in
          (* Same certified bit-level stage as a cold minimise — the
             snapshot above is pre-bitopt on both paths, so the patched
             graph re-derives the same claims a cold compile would and
             stays byte-identical downstream. *)
          let bitopt_report = bitopt_stage config onto in
          let disambig_report =
            stage "disambig" (fun () ->
                if config.disambiguate then begin
                  let verify =
                    if config.verify_each then
                      Some
                        (fun rule g touched ->
                          Fpfa_analysis.Verify.pass_hook () rule g touched;
                          match
                            Fpfa_diag.Diag.errors
                              (Fpfa_analysis.Verify.statespace g)
                          with
                          | [] -> ()
                          | errs -> raise (Fpfa_diag.Diag.Failed errs))
                    else None
                  in
                  Fpfa_analysis.Addr.prune ?verify onto
                end
                else Transform.Disambig.empty_report)
          in
          let graph =
            stage "renumber" (fun () -> Cdfg.Serialize.renumber onto)
          in
          Ok
            ( {
                fresh with
                s_min =
                  Some (graph, simplify_report, bitopt_report, disambig_report);
                s_preprune = preprune;
                s_clustering = None;
                s_schedule = None;
                s_alloc = None;
              },
              List.length seed )))

  let freeze s =
    Cdfg.Graph.freeze s.s_raw;
    (match s.s_preprune with Some (g, _) -> Cdfg.Graph.freeze g | None -> ());
    match s.s_min with Some (g, _, _, _) -> Cdfg.Graph.freeze g | None -> ()
end

let map_func ?pool ?(config = default_config) func =
  Staged.to_result (Staged.run ?pool (Staged.of_func ~config func))

let map_source ?pool ?(config = default_config) ?(func = "main") source =
  Staged.to_result (Staged.run ?pool (Staged.of_source ~config ~func source))

let map_graph ?pool ?(config = default_config) g =
  Staged.to_result (Staged.run ?pool (Staged.of_graph ~config g))

(* All diagnostics for one mapped program: structural verifier on the raw
   and minimised graphs, mappability + statespace legality + lints on the
   minimised graph, and the mapping validators replaying cluster /
   schedule / allocation legality. One address analysis is shared by the
   verifier and the lints. The six diagnostic families are independent
   reads of the (frozen) result, so with a pool they run concurrently;
   [Diag.sort] makes the merged output order-independent. *)
let audit ?pool ~config result =
  Obs.span ~cat:"flow" "audit" @@ fun () ->
  let caps =
    match config.caps with Some caps -> caps | None -> config.tile.Arch.alu
  in
  (match pool with
  | Some _ ->
    Cdfg.Graph.freeze result.raw_graph;
    Cdfg.Graph.freeze result.graph
  | None -> ());
  let structure = Fpfa_analysis.Verify.structure result.graph in
  let facts =
    if Fpfa_diag.Diag.errors structure = [] then
      Some (Fpfa_analysis.Addr.analyze result.graph)
    else None
  in
  let families : (unit -> Fpfa_diag.Diag.t list) list =
    [
      (fun () -> Fpfa_analysis.Verify.structure result.raw_graph);
      (fun () -> Fpfa_analysis.Verify.all ?facts result.graph);
      (fun () ->
        match facts with
        | Some facts -> Fpfa_analysis.Lint.run ~facts result.graph
        | None -> []);
      (fun () -> Fpfa_analysis.Mapcheck.cluster ~caps result.clustering);
      (fun () ->
        Fpfa_analysis.Mapcheck.sched ~alu_count:config.tile.Arch.alu_count
          result.schedule);
      (fun () -> Fpfa_analysis.Mapcheck.alloc result.job);
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
           decided select conditions, bit-refined width overflows *)
        Fpfa_analysis.Bits.diagnostics result.graph);
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
  match Cfront.Interp.run_main ~array_init:memory_init program with
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
