module Ast = Cfront.Ast

type loop_segment = {
  body : Mapping.Parametric.t;
  k_first : int;
  trips : int;
}

type segment = Straight of Flow.result | Loop of loop_segment

type staged = { segments : segment list }

type outcome = Looped of staged | Unrolled of Flow.result * string

exception Loop_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Loop_error msg)) fmt

let loops staged =
  List.filter_map
    (function Loop l -> Some l | Straight _ -> None)
    staged.segments

let straights staged =
  List.filter_map
    (function Straight r -> Some r | Loop _ -> None)
    staged.segments

(* ----------------------- loop recognition ----------------------- *)

type counted_loop = {
  ivar : string;
  k0 : int;
  bound : int;
  body_stmts : Ast.stmt list;  (** without the increment *)
  while_stmt : Ast.stmt;  (** the original loop, for unrolled fallback *)
}

let rec assigns_var name stmts =
  List.exists
    (fun stmt ->
      match stmt with
      | Ast.Assign (Ast.Lvar v, _) | Ast.Decl (v, None, _) ->
        String.equal v name
      | Ast.Assign (Ast.Lindex _, _) | Ast.Decl (_, Some _, _) -> false
      | Ast.If (_, t, f) -> assigns_var name t || assigns_var name f
      | Ast.While (_, b) -> assigns_var name b
      | Ast.Return _ | Ast.Expr _ -> false)
    stmts

(* Does [stmt] match the counted pattern, with the counter's initial value
   as the last literal assignment in the preceding statements? *)
let recognise_loop pre stmt =
  match stmt with
  | Ast.While
      (Ast.Binop (Ast.Lt, Ast.Var ivar, Ast.Int_lit bound), loop_stmts) -> (
    let k0 =
      List.fold_left
        (fun acc s ->
          match s with
          | Ast.Assign (Ast.Lvar v, Ast.Int_lit k)
          | Ast.Decl (v, None, Some (Ast.Int_lit k))
            when String.equal v ivar ->
            Some k
          | _ -> acc)
        None pre
    in
    match (k0, List.rev loop_stmts) with
    | ( Some k0,
        Ast.Assign (Ast.Lvar v, Ast.Binop (Ast.Add, Ast.Var v', Ast.Int_lit 1))
        :: body_rev )
      when String.equal v ivar && String.equal v' ivar ->
      let body_stmts = List.rev body_rev in
      if assigns_var ivar body_stmts then None
      else if bound <= k0 then None
      else Some { ivar; k0; bound; body_stmts; while_stmt = stmt }
    | _, _ -> None)
  | _ -> None

(* Splits a function body into alternating straight stretches and counted
   loops. The counter's post-loop value (i = bound) is folded into the
   following straight stretch. *)
type raw_segment = Chunk of Ast.stmt list | Counted of counted_loop

let segment_body body =
  let rec walk seen_rev acc = function
    | [] -> List.rev (Chunk (List.rev seen_rev) :: acc)
    | stmt :: rest -> (
      match recognise_loop (List.rev seen_rev) stmt with
      | Some loop when loop.bound - loop.k0 >= 4 ->
        let epilogue =
          Ast.Assign (Ast.Lvar loop.ivar, Ast.Int_lit loop.bound)
        in
        walk [ epilogue ]
          (Counted loop :: Chunk (List.rev seen_rev) :: acc)
          rest
      | Some _ | None -> walk (stmt :: seen_rev) acc rest)
  in
  walk [] [] body

(* Substitution of the counter by a literal. *)
let rec subst_expr ivar k (e : Ast.expr) =
  match e with
  | Ast.Var v when String.equal v ivar -> Ast.Int_lit k
  | Ast.Int_lit _ | Ast.Var _ -> e
  | Ast.Index (a, idx) -> Ast.Index (a, subst_expr ivar k idx)
  | Ast.Binop (op, x, y) -> Ast.Binop (op, subst_expr ivar k x, subst_expr ivar k y)
  | Ast.Unop (op, x) -> Ast.Unop (op, subst_expr ivar k x)
  | Ast.Cond (c, x, y) ->
    Ast.Cond (subst_expr ivar k c, subst_expr ivar k x, subst_expr ivar k y)
  | Ast.Call (f, args) -> Ast.Call (f, List.map (subst_expr ivar k) args)

let rec subst_stmt ivar k (stmt : Ast.stmt) =
  match stmt with
  | Ast.Decl (v, size, init) ->
    Ast.Decl (v, size, Option.map (subst_expr ivar k) init)
  | Ast.Assign (Ast.Lvar v, e) -> Ast.Assign (Ast.Lvar v, subst_expr ivar k e)
  | Ast.Assign (Ast.Lindex (a, idx), e) ->
    Ast.Assign (Ast.Lindex (a, subst_expr ivar k idx), subst_expr ivar k e)
  | Ast.If (c, t, f) ->
    Ast.If
      ( subst_expr ivar k c,
        List.map (subst_stmt ivar k) t,
        List.map (subst_stmt ivar k) f )
  | Ast.While (c, b) ->
    Ast.While (subst_expr ivar k c, List.map (subst_stmt ivar k) b)
  | Ast.Return e -> Ast.Return (Option.map (subst_expr ivar k) e)
  | Ast.Expr e -> Ast.Expr (subst_expr ivar k e)

(* Every iteration must see identical region sizes or the iteration jobs
   cannot be isomorphic (homes and scratch bases would drift). The extent
   of each array across the whole trip range is computed from the unrolled,
   counter-substituted bodies and pinned with a declaration. *)
let array_extents loop =
  let extents : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let touch name idx =
    match Cfront.Unroll.eval_const_expr (fun _ -> None) idx with
    | Some offset when offset >= 0 ->
      let old =
        match Hashtbl.find_opt extents name with Some e -> e | None -> 0
      in
      Hashtbl.replace extents name (max old (offset + 1))
    | Some _ | None -> ()
  in
  let rec walk_expr (e : Ast.expr) =
    match e with
    | Ast.Int_lit _ | Ast.Var _ -> ()
    | Ast.Index (a, idx) ->
      touch a idx;
      walk_expr idx
    | Ast.Binop (_, x, y) ->
      walk_expr x;
      walk_expr y
    | Ast.Unop (_, x) -> walk_expr x
    | Ast.Cond (c, x, y) ->
      walk_expr c;
      walk_expr x;
      walk_expr y
    | Ast.Call (_, args) -> List.iter walk_expr args
  in
  let rec walk_stmt (stmt : Ast.stmt) =
    match stmt with
    | Ast.Decl (_, _, init) -> Option.iter walk_expr init
    | Ast.Assign (Ast.Lvar _, e) -> walk_expr e
    | Ast.Assign (Ast.Lindex (a, idx), e) ->
      touch a idx;
      walk_expr idx;
      walk_expr e
    | Ast.If (c, t, f) ->
      walk_expr c;
      List.iter walk_stmt t;
      List.iter walk_stmt f
    | Ast.While (c, b) ->
      walk_expr c;
      List.iter walk_stmt b
    | Ast.Return e -> Option.iter walk_expr e
    | Ast.Expr e -> walk_expr e
  in
  for k = loop.k0 to loop.bound - 1 do
    let body =
      Cfront.Unroll.unroll_body (List.map (subst_stmt loop.ivar k) loop.body_stmts)
    in
    List.iter walk_stmt body
  done;
  Hashtbl.fold (fun name extent acc -> (name, extent) :: acc) extents []
  |> List.sort compare

let iteration_func loop ~extents k =
  let decls =
    List.map (fun (name, extent) -> Ast.Decl (name, Some extent, None)) extents
  in
  {
    Ast.name = Printf.sprintf "__iter_%d" k;
    params = [];
    body = decls @ List.map (subst_stmt loop.ivar k) loop.body_stmts;
    returns_value = false;
  }

(* ----------------------- mapping one loop ----------------------- *)

(* Static aliasing guard: two accesses that touch different cells at the
   base iteration may collide at another iteration (strides differ); the
   body's internal move/write ordering assumed they do not alias, so any
   such collision anywhere in the trip range forces the unrolled
   fallback. *)
let aliasing_hazard loop body =
  let accesses = Mapping.Parametric.accesses body in
  let kb = Mapping.Parametric.base_k body in
  let t_lo = loop.k0 - kb and t_hi = loop.bound - 1 - kb in
  let collide (a : Mapping.Parametric.access) (b : Mapping.Parametric.access) =
    a.Mapping.Parametric.location.Mapping.Job.mpp
    = b.Mapping.Parametric.location.Mapping.Job.mpp
    && a.Mapping.Parametric.location.Mapping.Job.mem
       = b.Mapping.Parametric.location.Mapping.Job.mem
    &&
    let a0 = a.Mapping.Parametric.location.Mapping.Job.addr
    and b0 = b.Mapping.Parametric.location.Mapping.Job.addr in
    let da = a.Mapping.Parametric.stride and db = b.Mapping.Parametric.stride in
    if da = db then false (* distinct at base stays distinct *)
    else
      let num = b0 - a0 and den = da - db in
      num mod den = 0
      &&
      let t = num / den in
      t >= t_lo && t <= t_hi
  in
  let rec scan = function
    | [] -> false
    | a :: rest ->
      List.exists
        (fun b ->
          (a.Mapping.Parametric.is_write || b.Mapping.Parametric.is_write)
          && a.Mapping.Parametric.location <> b.Mapping.Parametric.location
          && collide a b)
        rest
      || scan rest
  in
  scan accesses

(* Maps one counted loop parametrically. [Error reason] sends it back to
   the unrolled straight segment. With a pool the candidate base pairs
   (two whole-flow mappings each) are tried in parallel; the outcome is
   identical to the sequential first-success scan because candidates are
   still consulted in order. *)
let map_loop ?pool config loop =
  let extents = array_extents loop in
  (* Base iterations away from 0/1 so constant folding treats them like any
     other iteration; a literal in the source can still collide with one
     particular counter value, so several base pairs are tried. *)
  let candidate_bases =
    List.filter
      (fun kb -> kb >= loop.k0 && kb + 1 < loop.bound)
      [ loop.k0 + 2; loop.k0 + 3; loop.k0 + 4 ]
  in
  let try_pair kb =
    match
      ( Flow.map_func ~config (iteration_func loop ~extents kb),
        Flow.map_func ~config (iteration_func loop ~extents (kb + 1)) )
    with
    | exception Flow.Flow_error msg -> Error ("body: " ^ msg)
    | base_result, next_result -> (
      match
        Mapping.Parametric.of_pair ~base_k:kb ~base:base_result.Flow.job
          ~next:next_result.Flow.job
      with
      | Error reason -> Error ("not isomorphic: " ^ reason)
      | Ok body ->
        if aliasing_hazard loop body then
          Error "iteration accesses may alias across the trip range"
        else Ok body)
  in
  let scan =
    match pool with
    | None ->
      (* lazy: stop mapping at the first success *)
      let rec first_ok errors = function
        | [] -> Error (String.concat "; " (List.rev errors))
        | kb :: rest -> (
          match try_pair kb with
          | Ok body -> Ok body
          | Error e -> first_ok (e :: errors) rest)
      in
      first_ok [] candidate_bases
    | Some pool ->
      (* eager: map every candidate in parallel, pick in candidate
         order — same winner, same combined error message *)
      let rec first_ok errors = function
        | [] -> Error (String.concat "; " (List.rev errors))
        | Ok body :: _ -> Ok body
        | Error e :: rest -> first_ok (e :: errors) rest
      in
      first_ok [] (Fpfa_exec.Pool.map pool try_pair candidate_bases)
  in
  match scan with
  | Ok body -> Ok { body; k_first = loop.k0; trips = loop.bound - loop.k0 }
  | Error reason -> Error reason

(* ----------------------- whole-function staging ----------------------- *)

let prepare_func ?(func = "main") source =
  let program =
    match Cfront.Parser.parse_program source with
    | p -> (
      match Cfront.Inline.program p with
      | p -> p
      | exception Cfront.Inline.Error msg -> errorf "inline: %s" msg)
    | exception Cfront.Parser.Error (msg, pos) ->
      errorf "syntax error at %d:%d: %s" pos.Cfront.Token.line
        pos.Cfront.Token.col msg
  in
  match
    List.find_opt (fun (f : Ast.func) -> String.equal f.Ast.name func) program
  with
  | Some f -> f
  | None -> errorf "no function %s" func

let merge_memory base updates =
  List.fold_left
    (fun acc (region, contents) ->
      (region, contents) :: List.remove_assoc region acc)
    base updates
  |> List.sort compare

let run ?(memory_init = []) staged =
  let sim memory job =
    let stage_memory, _ = Fpfa_sim.Sim.run ~memory_init:memory job in
    merge_memory memory stage_memory
  in
  List.fold_left
    (fun memory segment ->
      match segment with
      | Straight result -> sim memory result.Flow.job
      | Loop l ->
        let memory = ref memory in
        for k = l.k_first to l.k_first + l.trips - 1 do
          memory := sim !memory (Mapping.Parametric.instantiate l.body k)
        done;
        !memory)
    (List.sort compare memory_init)
    staged.segments

let reference_memory ?(memory_init = []) f =
  let scalar_init =
    List.filter_map
      (fun (region, contents) ->
        if Array.length contents = 1 then Some (region, contents.(0)) else None)
      memory_init
  in
  let state = Cfront.Interp.run ~scalar_init ~array_init:memory_init f in
  let env = Cfront.Sema.check_func f in
  let is_kind pred name =
    match Cfront.Sema.find env name with
    | Some sym -> pred sym.Cfront.Sema.kind
    | None -> false
  in
  List.filter_map
    (fun (name, v) ->
      if is_kind (fun k -> k = Cfront.Sema.Scalar) name then Some (name, [| v |])
      else None)
    state.Cfront.Interp.scalars
  @ List.filter
      (fun (name, _) ->
        is_kind (function Cfront.Sema.Array _ -> true | _ -> false) name)
      state.Cfront.Interp.arrays

let pad_equal a b =
  let len = max (Array.length a) (Array.length b) in
  let get arr i = if i < Array.length arr then arr.(i) else 0 in
  let rec loop i = i >= len || (get a i = get b i && loop (i + 1)) in
  loop 0

let memory_matches ~golden ~actual ~memory_init =
  List.for_all
    (fun (region, expected) ->
      match List.assoc_opt region actual with
      | Some got -> pad_equal got expected
      | None -> (
        match List.assoc_opt region memory_init with
        | Some initial -> pad_equal initial expected
        | None -> Array.for_all (fun v -> v = 0) expected))
    golden

let validate staged f =
  (* End-to-end check on zero inputs plus a deterministic non-zero vector:
     catches non-linear counter uses the structural checks cannot. *)
  let env = Cfront.Sema.check_func f in
  let seeded =
    List.filter_map
      (fun (sym : Cfront.Sema.symbol) ->
        if not sym.Cfront.Sema.implicit then None
        else
          match sym.Cfront.Sema.kind with
          | Cfront.Sema.Scalar -> Some (sym.Cfront.Sema.name, [| 5 |])
          | Cfront.Sema.Array size ->
            let words = match size with Some s -> s | None -> 16 in
            Some
              (sym.Cfront.Sema.name, Array.init words (fun i -> (3 * i) - 7)))
      env
  in
  List.for_all
    (fun memory_init ->
      let golden = reference_memory ~memory_init f in
      (* a parametric job that addresses memory off the tile is wrong, not
         fatal: the caller demotes the loop and unrolls it *)
      match run ~memory_init staged with
      | exception Fpfa_sim.Sim.Fault _ -> false
      | actual -> memory_matches ~golden ~actual ~memory_init)
    [ []; seeded ]

let map_source ?pool ?(config = Flow.default_config) ?(func = "main") source =
  let f = prepare_func ~func source in
  let fallback reason = Unrolled (Flow.map_func ~config f, reason) in
  let raw = segment_body f.Ast.body in
  (* First pass: parametrise each qualifying loop structurally; structural
     failures unroll inside the neighbouring straight chunk. *)
  let structural =
    List.map
      (function
        | Chunk stmts -> `Chunk stmts
        | Counted loop -> (
          match map_loop ?pool config loop with
          | Ok l -> `Loop (loop, l)
          | Error reason -> `Demoted (loop, reason)))
      raw
  in
  let structural_reasons =
    List.filter_map
      (function
        | `Demoted ((loop : counted_loop), reason) ->
          Some (loop.ivar ^ ": " ^ reason)
        | `Chunk _ | `Loop _ -> None)
      structural
  in
  (* Builds the staged program with the loops in [demote] additionally
     unrolled. Loop indices count parametrised loops in order. *)
  let build_staged demote =
    let flush pending acc =
      let stmts = List.concat (List.rev pending) in
      if stmts = [] then acc
      else
        let stage =
          Flow.map_func ~config
            {
              Ast.name = Printf.sprintf "__seg%d" (List.length acc);
              params = [];
              body = stmts;
              returns_value = false;
            }
        in
        Straight stage :: acc
    in
    let _, pending, acc =
      List.fold_left
        (fun (loop_index, pending, acc) item ->
          match item with
          | `Chunk stmts -> (loop_index, stmts :: pending, acc)
          | `Demoted ((loop : counted_loop), _) ->
            (loop_index, [ loop.while_stmt ] :: pending, acc)
          | `Loop ((loop : counted_loop), l) ->
            if List.mem loop_index demote then
              (loop_index + 1, [ loop.while_stmt ] :: pending, acc)
            else (loop_index + 1, [], Loop l :: flush pending acc))
        (0, [], []) structural
    in
    { segments = List.rev (flush pending acc) }
  in
  let parametrised =
    List.length
      (List.filter (function `Loop _ -> true | _ -> false) structural)
  in
  if parametrised = 0 then
    fallback
      (match structural_reasons with
      | [] -> "no counted loop with enough trips"
      | rs -> String.concat "; " rs)
  else
    (* Validation failures cannot name the culprit loop, so demotion
       candidates are tried: none, then each loop alone. *)
    let candidates =
      [] :: List.init parametrised (fun j -> [ j ])
    in
    let rec attempt = function
      | [] -> fallback "validation failed (non-linear counter use)"
      | demote :: rest -> (
        match build_staged demote with
        | exception Flow.Flow_error msg -> fallback msg
        | staged ->
          if loops staged <> [] && validate staged f then Looped staged
          else attempt rest)
    in
    attempt candidates

let verify ?(memory_init = []) source ?(func = "main") outcome =
  let f = prepare_func ~func source in
  let golden = reference_memory ~memory_init f in
  match outcome with
  | Looped staged ->
    memory_matches ~golden ~actual:(run ~memory_init staged) ~memory_init
  | Unrolled (result, _) ->
    let actual, _ = Fpfa_sim.Sim.run ~memory_init result.Flow.job in
    memory_matches ~golden ~actual ~memory_init

type costs = {
  looped_config_words : int;
  unrolled_config_words : int;
  looped_cycles : int;
  unrolled_cycles : int;
}

let staged_costs staged =
  List.fold_left
    (fun (words, cycles) segment ->
      match segment with
      | Straight (r : Flow.result) ->
        ( words + Mapping.Encode.size_words r.Flow.job,
          cycles + Mapping.Job.cycle_count r.Flow.job )
      | Loop l ->
        let body_job = Mapping.Parametric.base_job l.body in
        ( words
          + Mapping.Encode.size_words body_job
          + Mapping.Parametric.patch_words l.body,
          cycles + (l.trips * Mapping.Job.cycle_count body_job) ))
    (0, 0) staged.segments

let compare_costs ?pool ?(config = Flow.default_config) ?(func = "main") source =
  match map_source ?pool ~config ~func source with
  | Unrolled _ -> None
  | Looped staged ->
    let f = prepare_func ~func source in
    let unrolled = Flow.map_func ~config f in
    let words, cycles = staged_costs staged in
    Some
      {
        looped_config_words = words;
        unrolled_config_words = Mapping.Encode.size_words unrolled.Flow.job;
        looped_cycles = cycles;
        unrolled_cycles = Mapping.Job.cycle_count unrolled.Flow.job;
      }

let pp_outcome fmt = function
  | Looped staged ->
    let describe = function
      | Straight (r : Flow.result) ->
        Printf.sprintf "straight(%d cyc)" (Mapping.Job.cycle_count r.Flow.job)
      | Loop l ->
        Printf.sprintf "loop(%dx%d cyc, %d strides)" l.trips
          (Mapping.Job.cycle_count (Mapping.Parametric.base_job l.body))
          (Mapping.Parametric.stride_count l.body)
    in
    Format.fprintf fmt "looped: %s"
      (String.concat " ; " (List.map describe staged.segments))
  | Unrolled (result, reason) ->
    Format.fprintf fmt "unrolled (%s): %d cycles" reason
      (Mapping.Job.cycle_count result.Flow.job)
