type offset_relation = Equal | Different | Unknown

let relate g a b =
  if a = b then Equal
  else
    match (Graph.kind g a, Graph.kind g b) with
    | Graph.Const x, Graph.Const y -> if x = y then Equal else Different
    | _, _ -> Unknown

let rec anchor g ~offset token =
  match Graph.kind g token with
  | Graph.St _ | Graph.Del _ -> (
    match relate g (Graph.input g token 1) offset with
    | Different -> anchor g ~offset (Graph.input g token 0)
    | Equal | Unknown -> token)
  | Graph.Ss_in _ | Graph.Const _ | Graph.Binop _ | Graph.Unop _ | Graph.Mux
  | Graph.Ss_out _ | Graph.Fe _ ->
    token

let stored_value g ~offset stop =
  match Graph.kind g stop with
  | Graph.St _ -> (
    match relate g (Graph.input g stop 1) offset with
    | Equal -> Graph.input g stop 2
    | Different | Unknown -> -1)
  | Graph.Del _ | Graph.Ss_in _ | Graph.Const _ | Graph.Binop _ | Graph.Unop _
  | Graph.Mux | Graph.Ss_out _ | Graph.Fe _ ->
    -1

let binop g op a b =
  match (Graph.kind g a, Graph.kind g b) with
  | Graph.Const x, Graph.Const y -> Some (Op.eval_binop op x y)
  | _, _ -> None

let unop g op a =
  match Graph.kind g a with
  | Graph.Const x -> Some (Op.eval_unop op x)
  | _ -> None

let mux g ~cond if_true if_false =
  match Graph.kind g cond with
  | Graph.Const c -> Some (if c <> 0 then if_true else if_false)
  | _ -> None
