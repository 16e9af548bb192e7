module Obs = Fpfa_obs.Obs

let c_stages = Obs.counter "pipeline.stages"
let c_config_words = Obs.counter "pipeline.config_words"

type stage = {
  stage_name : string;
  result : Flow.result;
  config_words : int;
  reconfig_cycles : int;
  compute_cycles : int;
}

type t = {
  stages : stage list;
  total_compute_cycles : int;
  total_reconfig_cycles : int;
}

exception Pipeline_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Pipeline_error msg)) fmt

(* A plausible configuration-port width: one 16-bit word per lane on a
   handful of dedicated lanes. *)
let config_words_per_cycle = 4

let prepare source =
  match Cfront.Parser.parse_program source with
  | program -> (
    match Cfront.Inline.program program with
    | inlined -> inlined
    | exception Cfront.Inline.Error msg -> errorf "inline: %s" msg)
  | exception Cfront.Parser.Error (msg, pos) ->
    errorf "syntax error at %d:%d: %s" pos.Cfront.Token.line
      pos.Cfront.Token.col msg

let map ?pool ?(config = Flow.default_config) source ~funcs =
  if funcs = [] then errorf "a pipeline needs at least one stage";
  let program = prepare source in
  let stages =
    Fpfa_exec.Pool.maybe pool
      (fun name ->
        Obs.span ~cat:"pipeline" "map" ~args:[ ("func", Obs.Str name) ]
        @@ fun () ->
        let f =
          match
            List.find_opt
              (fun (f : Cfront.Ast.func) ->
                String.equal f.Cfront.Ast.name name)
              program
          with
          | Some f -> f
          | None -> errorf "no function %s in source" name
        in
        let result =
          match Flow.map_func ~config f with
          | result -> result
          | exception Flow.Flow_error msg -> errorf "stage %s: %s" name msg
        in
        let config_words = Mapping.Encode.size_words result.Flow.job in
        Obs.incr c_stages;
        Obs.add c_config_words config_words;
        {
          stage_name = name;
          result;
          config_words;
          reconfig_cycles =
            (config_words + config_words_per_cycle - 1)
            / config_words_per_cycle;
          compute_cycles = result.Flow.metrics.Mapping.Metrics.cycles;
        })
      funcs
  in
  {
    stages;
    total_compute_cycles =
      Fpfa_util.Listx.sum (List.map (fun s -> s.compute_cycles) stages);
    total_reconfig_cycles =
      Fpfa_util.Listx.sum (List.map (fun s -> s.reconfig_cycles) stages);
  }

let merge_memory base updates =
  List.fold_left
    (fun acc (region, contents) ->
      (region, contents) :: List.remove_assoc region acc)
    base updates
  |> List.sort compare

let run ?(memory_init = []) t =
  List.fold_left
    (fun memory stage ->
      let stage_memory, _ =
        Obs.span ~cat:"pipeline" "run"
          ~args:[ ("stage", Obs.Str stage.stage_name) ]
          (fun () ->
            Fpfa_sim.Sim.run ~memory_init:memory stage.result.Flow.job)
      in
      merge_memory memory stage_memory)
    (List.sort compare memory_init)
    t.stages

let reference ?(memory_init = []) source ~funcs =
  let program = prepare source in
  (* Only the function's own symbols count as stage outputs: seeding the
     interpreter pre-loads every carried region, and unrelated entries in
     its final snapshot must not override fresher stage results. *)
  let state_to_memory env (state : Cfront.Interp.state) =
    let is_scalar name =
      match Cfront.Sema.find env name with
      | Some { Cfront.Sema.kind = Cfront.Sema.Scalar; _ } -> true
      | Some _ | None -> false
    in
    let is_array name =
      match Cfront.Sema.find env name with
      | Some { Cfront.Sema.kind = Cfront.Sema.Array _; _ } -> true
      | Some _ | None -> false
    in
    List.filter_map
      (fun (name, v) -> if is_scalar name then Some (name, [| v |]) else None)
      state.Cfront.Interp.scalars
    @ List.filter (fun (name, _) -> is_array name) state.Cfront.Interp.arrays
  in
  List.fold_left
    (fun memory name ->
      let f =
        match
          List.find_opt
            (fun (f : Cfront.Ast.func) -> String.equal f.Cfront.Ast.name name)
            program
        with
        | Some f -> f
        | None -> errorf "no function %s in source" name
      in
      let scalar_init =
        List.filter_map
          (fun (region, contents) ->
            if Array.length contents = 1 then Some (region, contents.(0))
            else None)
          memory
      in
      let array_init = memory in
      let env = Cfront.Sema.check_func f in
      let state = Cfront.Interp.run ~scalar_init ~array_init f in
      merge_memory memory (state_to_memory env state))
    (List.sort compare memory_init)
    funcs

let pad_equal a b =
  let len = max (Array.length a) (Array.length b) in
  let get arr i = if i < Array.length arr then arr.(i) else 0 in
  let rec loop i = i >= len || (get a i = get b i && loop (i + 1)) in
  loop 0

let verify ?pool ?(memory_init = []) source ~funcs =
  let pipeline = map ?pool source ~funcs in
  let mapped = run ~memory_init pipeline in
  let golden = reference ~memory_init source ~funcs in
  List.for_all
    (fun (region, expected) ->
      match List.assoc_opt region mapped with
      | Some actual -> pad_equal actual expected
      | None -> Array.for_all (fun v -> v = 0) expected)
    golden

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-12s compute %4d cycles, config %4d words, reconfig %3d cycles@,"
        s.stage_name s.compute_cycles s.config_words s.reconfig_cycles)
    t.stages;
  Format.fprintf fmt "total: %d compute + %d reconfiguration cycles@]"
    t.total_compute_cycles t.total_reconfig_cycles

(* ---------------- stages with loop-configuration reuse ---------------- *)

type reuse_stage = {
  rname : string;
  outcome : Loop_flow.outcome;
  rconfig_words : int;
  rreconfig_cycles : int;
  rcompute_cycles : int;
}

type reuse = {
  rstages : reuse_stage list;
  rtotal_compute_cycles : int;
  rtotal_reconfig_cycles : int;
}

let map_reuse ?pool ?(config = Flow.default_config) source ~funcs =
  if funcs = [] then errorf "a pipeline needs at least one stage";
  let rstages =
    Fpfa_exec.Pool.maybe pool
      (fun name ->
        Obs.span ~cat:"pipeline" "map-reuse" ~args:[ ("func", Obs.Str name) ]
        @@ fun () ->
        let outcome =
          match Loop_flow.map_source ~config ~func:name source with
          | outcome -> outcome
          | exception Loop_flow.Loop_error msg ->
            errorf "stage %s: %s" name msg
        in
        let words, cycles =
          match outcome with
          | Loop_flow.Looped staged -> Loop_flow.staged_costs staged
          | Loop_flow.Unrolled (result, _) ->
            ( Mapping.Encode.size_words result.Flow.job,
              Mapping.Job.cycle_count result.Flow.job )
        in
        {
          rname = name;
          outcome;
          rconfig_words = words;
          rreconfig_cycles =
            (words + config_words_per_cycle - 1) / config_words_per_cycle;
          rcompute_cycles = cycles;
        })
      funcs
  in
  {
    rstages;
    rtotal_compute_cycles =
      Fpfa_util.Listx.sum (List.map (fun s -> s.rcompute_cycles) rstages);
    rtotal_reconfig_cycles =
      Fpfa_util.Listx.sum (List.map (fun s -> s.rreconfig_cycles) rstages);
  }

let run_reuse ?(memory_init = []) reuse =
  List.fold_left
    (fun memory stage ->
      match stage.outcome with
      | Loop_flow.Looped staged ->
        merge_memory memory (Loop_flow.run ~memory_init:memory staged)
      | Loop_flow.Unrolled (result, _) ->
        let stage_memory, _ =
          Fpfa_sim.Sim.run ~memory_init:memory result.Flow.job
        in
        merge_memory memory stage_memory)
    (List.sort compare memory_init)
    reuse.rstages

let verify_reuse ?pool ?(memory_init = []) source ~funcs =
  let reuse = map_reuse ?pool source ~funcs in
  let mapped = run_reuse ~memory_init reuse in
  let golden = reference ~memory_init source ~funcs in
  List.for_all
    (fun (region, expected) ->
      match List.assoc_opt region mapped with
      | Some actual -> pad_equal actual expected
      | None -> Array.for_all (fun v -> v = 0) expected)
    golden

let pp_reuse fmt reuse =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt
        "%-12s compute %4d cycles, config %4d words, reconfig %3d cycles (%s)@,"
        s.rname s.rcompute_cycles s.rconfig_words s.rreconfig_cycles
        (match s.outcome with
        | Loop_flow.Looped staged ->
          Printf.sprintf "%d loop(s) reused"
            (List.length (Loop_flow.loops staged))
        | Loop_flow.Unrolled _ -> "unrolled"))
    reuse.rstages;
  Format.fprintf fmt "total: %d compute + %d reconfiguration cycles@]"
    reuse.rtotal_compute_cycles reuse.rtotal_reconfig_cycles
