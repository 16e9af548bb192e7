module G = Cdfg.Graph
module Op = Cdfg.Op

let const_of g id =
  match G.kind g id with G.Const c -> Some c | _ -> None

(* Replaces [id] by a fresh constant node and reports a change. *)
let fold_to_const g id value =
  let c = G.add g (G.Const value) [] in
  G.replace_uses g id ~by:c;
  true

let redirect g id ~by =
  G.replace_uses g id ~by;
  true

(* One node's worth of constant folding. *)
let fold_node g (n : G.node) =
  match n.G.kind with
  | G.Binop op -> (
    match (const_of g n.G.inputs.(0), const_of g n.G.inputs.(1)) with
    | Some a, Some b -> fold_to_const g n.G.id (Op.eval_binop op a b)
    | _, _ -> false)
  | G.Unop op -> (
    match const_of g n.G.inputs.(0) with
    | Some a -> fold_to_const g n.G.id (Op.eval_unop op a)
    | None -> false)
  | G.Mux -> (
    match const_of g n.G.inputs.(0) with
    | Some c ->
      let chosen = if c <> 0 then n.G.inputs.(1) else n.G.inputs.(2) in
      redirect g n.G.id ~by:chosen
    | None -> false)
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ -> false

let const_fold_rule =
  Pass.local "const-fold" (fun g id -> fold_node g (G.node g id))

let is_const g id v = const_of g id = Some v

let algebraic_node g (n : G.node) =
  let changed = ref false in
  let rewrite id ~by = if redirect g id ~by then changed := true in
  let to_const id v = if fold_to_const g id v then changed := true in
  (match n.G.kind with
  | G.Binop op -> (
    let a = n.G.inputs.(0) and b = n.G.inputs.(1) in
    match op with
    | Op.Add ->
      if is_const g a 0 then rewrite n.G.id ~by:b
      else if is_const g b 0 then rewrite n.G.id ~by:a
    | Op.Sub ->
      if is_const g b 0 then rewrite n.G.id ~by:a
      else if a = b then to_const n.G.id 0
    | Op.Mul ->
      if is_const g a 1 then rewrite n.G.id ~by:b
      else if is_const g b 1 then rewrite n.G.id ~by:a
      else if is_const g a 0 || is_const g b 0 then to_const n.G.id 0
    | Op.Div -> if is_const g b 1 then rewrite n.G.id ~by:a
    | Op.Mod -> if is_const g b 1 then to_const n.G.id 0
    | Op.Shl | Op.Shr ->
      if is_const g b 0 then rewrite n.G.id ~by:a
      else if is_const g a 0 then to_const n.G.id 0
    | Op.Band ->
      if is_const g a 0 || is_const g b 0 then to_const n.G.id 0
      else if a = b then rewrite n.G.id ~by:a
    | Op.Bor ->
      if is_const g a 0 then rewrite n.G.id ~by:b
      else if is_const g b 0 then rewrite n.G.id ~by:a
      else if a = b then rewrite n.G.id ~by:a
    | Op.Bxor ->
      if is_const g a 0 then rewrite n.G.id ~by:b
      else if is_const g b 0 then rewrite n.G.id ~by:a
      else if a = b then to_const n.G.id 0
    | Op.Eq | Op.Le | Op.Ge -> if a = b then to_const n.G.id 1
    | Op.Ne | Op.Lt | Op.Gt -> if a = b then to_const n.G.id 0
    | Op.Land ->
      if is_const g a 0 || is_const g b 0 then to_const n.G.id 0
    | Op.Lor -> (
      match (const_of g a, const_of g b) with
      | Some v, _ when v <> 0 -> to_const n.G.id 1
      | _, Some v when v <> 0 -> to_const n.G.id 1
      | _, _ -> ()))
  | G.Mux ->
    let c = n.G.inputs.(0)
    and if_true = n.G.inputs.(1)
    and if_false = n.G.inputs.(2) in
    if if_true = if_false then rewrite n.G.id ~by:if_true
    else begin
      (* Mux (!c, a, b) -> Mux (c, b, a) *)
      match G.kind g c with
      | G.Unop Op.Lnot ->
        let inner = List.nth (G.inputs g c) 0 in
        (* Only when the inner value is boolean-like do !x and the mux
           commute; Lnot always yields 0/1 so flipping is safe. *)
        G.set_inputs g n.G.id [ inner; if_false; if_true ];
        changed := true
      | _ -> ()
    end
  | G.Unop Op.Lnot -> (
    (* !!x with boolean-producing x collapses to x. *)
    let a = n.G.inputs.(0) in
    match G.kind g a with
    | G.Unop Op.Lnot -> (
      let inner = List.nth (G.inputs g a) 0 in
      match G.kind g inner with
      | G.Binop
          (Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor)
      | G.Unop Op.Lnot ->
        rewrite n.G.id ~by:inner
      | _ -> ())
    | _ -> ())
  | G.Unop (Op.Neg | Op.Bnot)
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
    ());
  !changed

let algebraic_rule =
  Pass.local "algebraic" (fun g id -> algebraic_node g (G.node g id))

let log2_exact n =
  let rec loop v k = if v = n then Some k else if v > n || k > 61 then None else loop (v * 2) (k + 1) in
  if n <= 0 then None else loop 1 0

let strength_reduce_node g (n : G.node) =
  match n.G.kind with
  | G.Binop Op.Mul -> (
    let a = n.G.inputs.(0) and b = n.G.inputs.(1) in
    let try_shift value_input const_input =
      match const_of g const_input with
      | Some c -> (
        match log2_exact c with
        | Some k when k > 0 ->
          let amount = G.add g (G.Const k) [] in
          let shift = G.add g (G.Binop Op.Shl) [ value_input; amount ] in
          G.replace_uses g n.G.id ~by:shift;
          true
        | Some _ | None -> false)
      | None -> false
    in
    try_shift a b || try_shift b a)
  | G.Binop _ | G.Unop _ | G.Mux | G.Const _ | G.Ss_in _ | G.Ss_out _
  | G.Fe _ | G.St _ | G.Del _ ->
    false

let strength_reduce_rule =
  Pass.local "strength-reduce" (fun g id -> strength_reduce_node g (G.node g id))
