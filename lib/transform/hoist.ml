module G = Cdfg.Graph
module Op = Cdfg.Op

let single_use g id = G.data_use_count g id = 1

(* One mux's worth of hoisting. *)
let hoist_node g (n : G.node) =
  let changed = ref false in
  (match n.G.kind with
  | G.Mux -> (
    let c = n.G.inputs.(0)
    and if_true = n.G.inputs.(1)
    and if_false = n.G.inputs.(2) in
    (* same condition dominating a nested mux *)
    let collapse_nested () =
      match (G.kind g if_true, G.kind g if_false) with
      | G.Mux, _ when List.nth (G.inputs g if_true) 0 = c ->
        (* outer true-arm re-tests c: keep its true arm *)
        G.set_inputs g n.G.id [ c; List.nth (G.inputs g if_true) 1; if_false ];
        changed := true;
        true
      | _, G.Mux when List.nth (G.inputs g if_false) 0 = c ->
        G.set_inputs g n.G.id [ c; if_true; List.nth (G.inputs g if_false) 2 ];
        changed := true;
        true
      | _, _ -> false
    in
    if collapse_nested () then ()
    else if if_true = if_false then begin
      G.replace_uses g n.G.id ~by:if_true;
      changed := true
    end
    else
      (* mux (c, op(a, x), op(b, x)) -> op (mux (c, a, b), x) *)
      match (G.kind g if_true, G.kind g if_false) with
      | G.Binop op1, G.Binop op2
        when op1 = op2 && single_use g if_true && single_use g if_false -> (
        let t = G.inputs g if_true and f = G.inputs g if_false in
        match (t, f) with
        | [ t0; t1 ], [ f0; f1 ] ->
          (* shared operand s stays in place; the differing operands a
             (true arm) and b (false arm) move inside the new mux *)
          let shared_left s a b =
            let inner = G.add g G.Mux [ c; a; b ] in
            let hoisted = G.add g (G.Binop op1) [ s; inner ] in
            G.replace_uses g n.G.id ~by:hoisted;
            changed := true
          in
          let shared_right s a b =
            let inner = G.add g G.Mux [ c; a; b ] in
            let hoisted = G.add g (G.Binop op1) [ inner; s ] in
            G.replace_uses g n.G.id ~by:hoisted;
            changed := true
          in
          if t1 = f1 then shared_right t1 t0 f0
          else if t0 = f0 then shared_left t0 t1 f1
          else if Op.commutative op1 && t0 = f1 then
            (* op (s, t1) vs op (f0, s) *)
            shared_left t0 t1 f0
          else if Op.commutative op1 && t1 = f0 then
            (* op (t0, s) vs op (s, f1) *)
            shared_right t1 t0 f1
        | _, _ -> ())
      | G.Unop op1, G.Unop op2
        when op1 = op2 && single_use g if_true && single_use g if_false ->
        let t0 = List.nth (G.inputs g if_true) 0
        and f0 = List.nth (G.inputs g if_false) 0 in
        let inner = G.add g G.Mux [ c; t0; f0 ] in
        let hoisted = G.add g (G.Unop op1) [ inner ] in
        G.replace_uses g n.G.id ~by:hoisted;
        changed := true
      | _, _ -> ())
  | G.Const _ | G.Binop _ | G.Unop _ | G.Ss_in _ | G.Ss_out _ | G.Fe _
  | G.St _ | G.Del _ ->
    ());
  !changed

let rule = Pass.local "mux-hoist" (fun g id -> hoist_node g (G.node g id))
