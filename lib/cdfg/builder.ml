exception Unsupported of string

let unsupportedf fmt = Format.kasprintf (fun msg -> raise (Unsupported msg)) fmt

type state = {
  graph : Graph.t;
  tokens : (string, Graph.id) Hashtbl.t;  (** region -> current token node *)
  pending_reads : (string, Graph.id list) Hashtbl.t;
      (** fetches of the current token, to order the next store after *)
  const_cache : (int, Graph.id) Hashtbl.t;
}

let const st n =
  match Hashtbl.find_opt st.const_cache n with
  | Some id -> id
  | None ->
    let id = Graph.add st.graph (Graph.Const n) [] in
    Hashtbl.replace st.const_cache n id;
    id

let token st region =
  match Hashtbl.find_opt st.tokens region with
  | Some id -> id
  | None -> unsupportedf "region %s was not initialised" region

let record_read st region fe =
  let old =
    match Hashtbl.find_opt st.pending_reads region with
    | Some l -> l
    | None -> []
  in
  Hashtbl.replace st.pending_reads region (fe :: old)

(* A new token (St/Del) must be ordered after all fetches of the previous
   token: once mapped to hardware, the store overwrites the location. *)
let advance_token st region new_token =
  let reads =
    match Hashtbl.find_opt st.pending_reads region with
    | Some l -> l
    | None -> []
  in
  List.iter (fun fe -> Graph.add_order st.graph new_token ~after:fe) reads;
  Hashtbl.replace st.pending_reads region [];
  Hashtbl.replace st.tokens region new_token

(* A fetch that the token chain proves reads a stored value is that
   value ({!Fold.stored_value}): no node is built, and no later store
   waits for it. *)
let fetch st region offset =
  let token = token st region in
  let stored =
    Fold.stored_value st.graph ~offset (Fold.anchor st.graph ~offset token)
  in
  if stored >= 0 then stored
  else begin
    let fe = Graph.add st.graph (Graph.Fe region) [ token; offset ] in
    record_read st region fe;
    fe
  end

let store st region offset value =
  let stn =
    Graph.add st.graph (Graph.St region) [ token st region; offset; value ]
  in
  advance_token st region stn

let delete st region offset =
  let del = Graph.add st.graph (Graph.Del region) [ token st region; offset ] in
  advance_token st region del

(* An operation on constants is the cached constant of its value, and a
   mux on a constant select is the input it picks ({!Fold}). *)
let binop st op a b =
  match Fold.binop st.graph op a b with
  | Some v -> const st v
  | None -> Graph.add st.graph (Graph.Binop op) [ a; b ]

let unop st op a =
  match Fold.unop st.graph op a with
  | Some v -> const st v
  | None -> Graph.add st.graph (Graph.Unop op) [ a ]

let mux st cond if_true if_false =
  match Fold.mux st.graph ~cond if_true if_false with
  | Some picked -> picked
  | None -> Graph.add st.graph Graph.Mux [ cond; if_true; if_false ]

let rec build_expr st (expr : Cfront.Ast.expr) =
  match expr with
  | Int_lit n -> const st n
  | Var name -> fetch st name (const st 0)
  | Index (name, idx) -> fetch st name (build_expr st idx)
  | Binop (op, a, b) ->
    let a = build_expr st a in
    let b = build_expr st b in
    binop st (Op.binop_of_ast op) a b
  | Unop (op, a) -> unop st (Op.unop_of_ast op) (build_expr st a)
  | Cond (c, a, b) ->
    let c = build_expr st c in
    let a = build_expr st a in
    let b = build_expr st b in
    mux st c a b
  | Call ("abs", [ a ]) ->
    let a = build_expr st a in
    let negative = binop st Op.Lt a (const st 0) in
    mux st negative (unop st Op.Neg a) a
  | Call ("min", [ a; b ]) ->
    let a = build_expr st a in
    let b = build_expr st b in
    mux st (binop st Op.Lt a b) a b
  | Call ("max", [ a; b ]) ->
    let a = build_expr st a in
    let b = build_expr st b in
    mux st (binop st Op.Gt a b) a b
  | Call (name, _) -> unsupportedf "intrinsic %s" name

(* [predicate] is the current if-conversion guard: [None] at top level,
   [Some p] inside conditional bodies. A guarded store writes
   [Mux (p, new, old)] back to the same address. *)
let assign st ~predicate region offset value =
  let value =
    match predicate with
    | None -> value
    | Some p ->
      (* Mux selects its if_true input when the guard is non-zero, so the
         freshly computed value goes first and the old cell value second. *)
      let old = fetch st region offset in
      mux st p value old
  in
  store st region offset value

let conjoin st predicate cond =
  match predicate with
  | None -> Some cond
  | Some p -> Some (binop st Op.Land p cond)

let rec build_stmt st ~predicate (stmt : Cfront.Ast.stmt) =
  match stmt with
  | Decl (name, None, init) ->
    let value =
      match init with Some e -> build_expr st e | None -> const st 0
    in
    assign st ~predicate name (const st 0) value
  | Decl (_, Some _, _) -> ()
  | Assign (Lvar name, e) ->
    let value = build_expr st e in
    assign st ~predicate name (const st 0) value
  | Assign (Lindex (name, idx), e) ->
    let offset = build_expr st idx in
    let value = build_expr st e in
    assign st ~predicate name offset value
  | If (cond, then_body, else_body) ->
    let cond = build_expr st cond in
    let then_pred = conjoin st predicate cond in
    List.iter (build_stmt st ~predicate:then_pred) then_body;
    if else_body <> [] then begin
      let not_cond = unop st Op.Lnot cond in
      let else_pred = conjoin st predicate not_cond in
      List.iter (build_stmt st ~predicate:else_pred) else_body
    end
  | While (_, _) ->
    unsupportedf
      "residual loop: the trip count is not static; unroll before building"
  | Return None -> ()
  | Return (Some e) ->
    if predicate <> None then unsupportedf "return under a condition";
    let value = build_expr st e in
    Graph.set_output st.graph "return" value
  | Expr e -> ignore (build_expr st e)

let build ?(delete_locals = false) { Ast_in.func; env } =
  let graph = Graph.create func.Cfront.Ast.name in
  let st =
    {
      graph;
      tokens = Hashtbl.create 16;
      pending_reads = Hashtbl.create 16;
      const_cache = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (sym : Cfront.Sema.symbol) ->
      let size =
        match sym.kind with
        | Cfront.Sema.Scalar -> Some 1
        | Cfront.Sema.Array size -> size
      in
      Graph.declare_region graph sym.name
        { Graph.size; implicit = sym.implicit };
      let ss_in = Graph.add graph (Graph.Ss_in sym.name) [] in
      Hashtbl.replace st.tokens sym.name ss_in)
    env;
  List.iter (build_stmt st ~predicate:None) func.Cfront.Ast.body;
  if delete_locals then
    List.iter
      (fun (sym : Cfront.Sema.symbol) ->
        if not sym.implicit then
          match sym.kind with
          | Cfront.Sema.Scalar -> delete st sym.name (const st 0)
          | Cfront.Sema.Array (Some size) ->
            for offset = 0 to size - 1 do
              delete st sym.name (const st offset)
            done
          | Cfront.Sema.Array None -> ())
      env;
  List.iter
    (fun (sym : Cfront.Sema.symbol) ->
      ignore (Graph.add graph (Graph.Ss_out sym.name) [ token st sym.name ]))
    env;
  Graph.validate graph;
  (* The build's own additions are not edits for a pass to revisit. *)
  Graph.clear_dirty graph;
  graph

let build_func ?delete_locals func = build ?delete_locals (Ast_in.of_func func)

let build_program ?delete_locals ?(func = "main") source =
  let program = Cfront.Parser.parse_program source in
  let program = Cfront.Inline.program program in
  let program = Cfront.Unroll.unroll_program program in
  let f =
    List.find (fun (f : Cfront.Ast.func) -> String.equal f.Cfront.Ast.name func) program
  in
  build_func ?delete_locals f
