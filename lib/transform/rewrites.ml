module G = Cdfg.Graph
module Op = Cdfg.Op
module Fold = Cdfg.Fold

(* Rules dispatch on [G.kind] and read ports with [G.input]: a visit that
   does not fire allocates nothing. *)

let is_const g id v = match G.kind g id with G.Const c -> c = v | _ -> false

(* Replaces [id] by a fresh constant node and reports a change. *)
let fold_to_const g id value =
  let c = G.add g (G.Const value) [] in
  G.replace_uses g id ~by:c;
  true

let redirect g id ~by =
  G.replace_uses g id ~by;
  true

(* One node's worth of constant folding, decided by {!Cdfg.Fold} as the
   builder decides it. *)
let fold_node g id =
  match G.kind g id with
  | G.Binop op -> (
    match Fold.binop g op (G.input g id 0) (G.input g id 1) with
    | Some v -> fold_to_const g id v
    | None -> false)
  | G.Unop op -> (
    match Fold.unop g op (G.input g id 0) with
    | Some v -> fold_to_const g id v
    | None -> false)
  | G.Mux -> (
    let cond = G.input g id 0 in
    match Fold.mux g ~cond (G.input g id 1) (G.input g id 2) with
    | Some by -> redirect g id ~by
    | None -> false)
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ -> false

let const_fold_rule = Pass.local "const-fold" fold_node

let algebraic_binop g id op =
  let a = G.input g id 0 and b = G.input g id 1 in
  match op with
  | Op.Add ->
    if is_const g a 0 then redirect g id ~by:b
    else is_const g b 0 && redirect g id ~by:a
  | Op.Sub ->
    if is_const g b 0 then redirect g id ~by:a
    else a = b && fold_to_const g id 0
  | Op.Mul ->
    if is_const g a 1 then redirect g id ~by:b
    else if is_const g b 1 then redirect g id ~by:a
    else (is_const g a 0 || is_const g b 0) && fold_to_const g id 0
  | Op.Div -> is_const g b 1 && redirect g id ~by:a
  | Op.Mod -> is_const g b 1 && fold_to_const g id 0
  | Op.Shl | Op.Shr ->
    if is_const g b 0 then redirect g id ~by:a
    else is_const g a 0 && fold_to_const g id 0
  | Op.Band ->
    if is_const g a 0 || is_const g b 0 then fold_to_const g id 0
    else a = b && redirect g id ~by:a
  | Op.Bor ->
    if is_const g a 0 then redirect g id ~by:b
    else if is_const g b 0 then redirect g id ~by:a
    else a = b && redirect g id ~by:a
  | Op.Bxor ->
    if is_const g a 0 then redirect g id ~by:b
    else if is_const g b 0 then redirect g id ~by:a
    else a = b && fold_to_const g id 0
  | Op.Eq | Op.Le | Op.Ge -> a = b && fold_to_const g id 1
  | Op.Ne | Op.Lt | Op.Gt -> a = b && fold_to_const g id 0
  | Op.Land -> (is_const g a 0 || is_const g b 0) && fold_to_const g id 0
  | Op.Lor -> (
    match (G.kind g a, G.kind g b) with
    | G.Const v, _ when v <> 0 -> fold_to_const g id 1
    | _, G.Const v when v <> 0 -> fold_to_const g id 1
    | _, _ -> false)

let algebraic_node g id =
  match G.kind g id with
  | G.Binop op -> algebraic_binop g id op
  | G.Mux -> (
    let c = G.input g id 0
    and if_true = G.input g id 1
    and if_false = G.input g id 2 in
    if if_true = if_false then redirect g id ~by:if_true
    else
      (* Mux (!c, a, b) -> Mux (c, b, a) *)
      match G.kind g c with
      | G.Unop Op.Lnot ->
        (* Only when the inner value is boolean-like do !x and the mux
           commute; Lnot always yields 0/1 so flipping is safe. *)
        G.set_inputs g id [ G.input g c 0; if_false; if_true ];
        true
      | _ -> false)
  | G.Unop Op.Lnot -> (
    (* !!x with boolean-producing x collapses to x. *)
    let a = G.input g id 0 in
    match G.kind g a with
    | G.Unop Op.Lnot -> (
      let inner = G.input g a 0 in
      match G.kind g inner with
      | G.Binop
          (Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor)
      | G.Unop Op.Lnot ->
        redirect g id ~by:inner
      | _ -> false)
    | _ -> false)
  | G.Unop (Op.Neg | Op.Bnot)
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
    false

let algebraic_rule = Pass.local "algebraic" algebraic_node
