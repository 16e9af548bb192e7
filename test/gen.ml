(* QCheck generators shared by the property-based tests.

   Program family [program]: straight-line assignments + if/else +
   statically bounded loops; array indices are literals or affine in the
   loop counter, so the full flow (unroll, build, minimise, map) must
   succeed on every generated program. *)

module Q = QCheck

let scalar_names = [ "s0"; "s1"; "s2"; "acc" ]
let array_names = [ "arr0"; "arr1"; "outp" ]
let arr_len = 8

let small_int = Q.Gen.int_range (-64) 64

let binop : Cfront.Ast.binop Q.Gen.t =
  Q.Gen.oneofl
    [
      Cfront.Ast.Add; Cfront.Ast.Sub; Cfront.Ast.Mul; Cfront.Ast.Div;
      Cfront.Ast.Mod; Cfront.Ast.Shl; Cfront.Ast.Shr; Cfront.Ast.Band;
      Cfront.Ast.Bor; Cfront.Ast.Bxor; Cfront.Ast.Lt; Cfront.Ast.Le;
      Cfront.Ast.Gt; Cfront.Ast.Ge; Cfront.Ast.Eq; Cfront.Ast.Ne;
      Cfront.Ast.Land; Cfront.Ast.Lor;
    ]

let unop : Cfront.Ast.unop Q.Gen.t =
  Q.Gen.oneofl [ Cfront.Ast.Neg; Cfront.Ast.Bnot; Cfront.Ast.Lnot ]

(* Pure expressions over scalars and constant-indexed arrays. *)
let rec expr_gen ~depth st =
  let open Q.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Cfront.Ast.Int_lit n) small_int;
        map (fun v -> Cfront.Ast.Var v) (oneofl scalar_names);
        map2
          (fun a i -> Cfront.Ast.Index (a, Cfront.Ast.Int_lit i))
          (oneofl array_names)
          (int_range 0 (arr_len - 1));
      ]
  in
  if depth <= 0 then leaf st
  else
    let sub = expr_gen ~depth:(depth - 1) in
    oneof
      [
        leaf;
        map3 (fun op a b -> Cfront.Ast.Binop (op, a, b)) binop sub sub;
        map2 (fun op a -> Cfront.Ast.Unop (op, a)) unop sub;
        map3 (fun c a b -> Cfront.Ast.Cond (c, a, b)) sub sub sub;
        map2 (fun a b -> Cfront.Ast.Call ("min", [ a; b ])) sub sub;
        map2 (fun a b -> Cfront.Ast.Call ("max", [ a; b ])) sub sub;
        map (fun a -> Cfront.Ast.Call ("abs", [ a ])) sub;
      ]
      st

let expr =
  Q.make ~print:(Format.asprintf "%a" Cfront.Ast.pp_expr) (expr_gen ~depth:3)

let index_gen ~loop_var st =
  let open Q.Gen in
  match loop_var with
  | Some v ->
    oneof
      [
        map (fun k -> Cfront.Ast.Int_lit k) (int_range 0 (arr_len - 1));
        return (Cfront.Ast.Var v);
        map
          (fun k ->
            Cfront.Ast.Binop
              (Cfront.Ast.Add, Cfront.Ast.Var v, Cfront.Ast.Int_lit k))
          (int_range 0 2);
      ]
      st
  | None ->
    map (fun k -> Cfront.Ast.Int_lit k) (int_range 0 (arr_len - 1)) st

let assign_gen ~loop_var st =
  let open Q.Gen in
  oneof
    [
      map2
        (fun v e -> Cfront.Ast.Assign (Cfront.Ast.Lvar v, e))
        (oneofl scalar_names) (expr_gen ~depth:2);
      map3
        (fun a i e -> Cfront.Ast.Assign (Cfront.Ast.Lindex (a, i), e))
        (oneofl array_names) (index_gen ~loop_var) (expr_gen ~depth:2);
    ]
    st

let rec stmt_gen ~depth ~loop_var st =
  let open Q.Gen in
  if depth <= 0 then assign_gen ~loop_var st
  else
    let body n =
      list_size (int_range 1 n) (stmt_gen ~depth:(depth - 1) ~loop_var)
    in
    oneof
      [
        assign_gen ~loop_var;
        map3
          (fun c t e -> Cfront.Ast.If (c, t, e))
          (expr_gen ~depth:2) (body 3) (body 2);
      ]
      st

(* A counted loop: li = 0; while (li < bound) { body; li = li + 1; } where
   array indices inside the body stay in range (index <= bound-1 + 2 and
   bound <= arr_len - 2 keeps li + k within bounds). *)
let loop_gen st =
  let open Q.Gen in
  let bound = int_range 1 (arr_len - 2) st in
  let body =
    list_size (int_range 1 3) (stmt_gen ~depth:1 ~loop_var:(Some "li")) st
  in
  [
    Cfront.Ast.Assign (Cfront.Ast.Lvar "li", Cfront.Ast.Int_lit 0);
    Cfront.Ast.While
      ( Cfront.Ast.Binop
          (Cfront.Ast.Lt, Cfront.Ast.Var "li", Cfront.Ast.Int_lit bound),
        body
        @ [
            Cfront.Ast.Assign
              ( Cfront.Ast.Lvar "li",
                Cfront.Ast.Binop
                  (Cfront.Ast.Add, Cfront.Ast.Var "li", Cfront.Ast.Int_lit 1) );
          ] );
  ]

let program_gen st =
  let open Q.Gen in
  let block st =
    oneof
      [
        map (fun s -> [ s ]) (stmt_gen ~depth:2 ~loop_var:None);
        loop_gen;
      ]
      st
  in
  let blocks = list_size (int_range 1 5) block st in
  [
    {
      Cfront.Ast.name = "main";
      params = [];
      body = List.concat blocks;
      returns_value = false;
    };
  ]

let program =
  Q.make ~print:(fun p -> Cfront.Ast.program_to_string p) program_gen

(* Programs with masked dynamic array indices: [arr[s & (arr_len - 1)]]
   stays in bounds at runtime but defeats store forwarding and constant
   offset reasoning, so conservative anti-dependence order edges survive
   simplification — the address analysis's input family. The mask
   keeps the address analysis interval bounded. *)
let dyn_index_gen st =
  let open Q.Gen in
  map
    (fun v ->
      Cfront.Ast.Binop
        (Cfront.Ast.Band, Cfront.Ast.Var v, Cfront.Ast.Int_lit (arr_len - 1)))
    (oneofl scalar_names)
    st

let dyn_expr_gen ~depth st =
  let open Q.Gen in
  oneof
    [
      expr_gen ~depth;
      map2
        (fun a i -> Cfront.Ast.Index (a, i))
        (oneofl array_names) dyn_index_gen;
    ]
    st

let dyn_stmt_gen st =
  let open Q.Gen in
  oneof
    [
      map2
        (fun v e -> Cfront.Ast.Assign (Cfront.Ast.Lvar v, e))
        (oneofl scalar_names) (dyn_expr_gen ~depth:2);
      map3
        (fun a i e -> Cfront.Ast.Assign (Cfront.Ast.Lindex (a, i), e))
        (oneofl array_names)
        (oneof [ dyn_index_gen; index_gen ~loop_var:None ])
        (dyn_expr_gen ~depth:2);
    ]
    st

let dyn_program_gen st =
  let open Q.Gen in
  let body = list_size (int_range 2 8) dyn_stmt_gen st in
  [ { Cfront.Ast.name = "main"; params = []; body; returns_value = false } ]

let dyn_program =
  Q.make ~print:(fun p -> Cfront.Ast.program_to_string p) dyn_program_gen

(* Deterministic inputs for the generated programs. *)
let array_inputs =
  List.map
    (fun a -> (a, Array.init arr_len (fun i -> (7 * i) - 11)))
    array_names

let scalar_inputs = [ ("s0", 3); ("s1", -5); ("s2", 0); ("acc", 1); ("li", 0) ]

let memory_init =
  array_inputs @ List.map (fun (s, v) -> (s, [| v |])) scalar_inputs
