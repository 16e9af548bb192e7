type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land
  | Lor

type unop = Neg | Bnot | Lnot

let bool_int b = if b then 1 else 0

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | Shl -> if b < 0 || b > 62 then 0 else a lsl b
  | Shr -> if b < 0 || b > 62 then 0 else a asr b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Lt -> bool_int (a < b)
  | Le -> bool_int (a <= b)
  | Gt -> bool_int (a > b)
  | Ge -> bool_int (a >= b)
  | Eq -> bool_int (a = b)
  | Ne -> bool_int (a <> b)
  | Land -> bool_int (a <> 0 && b <> 0)
  | Lor -> bool_int (a <> 0 || b <> 0)

let eval_unop op a =
  match op with Neg -> -a | Bnot -> lnot a | Lnot -> bool_int (a = 0)

let commutative = function
  | Add | Mul | Band | Bor | Bxor | Eq | Ne | Land | Lor -> true
  | Sub | Div | Mod | Shl | Shr | Lt | Le | Gt | Ge -> false

let is_multiplier_class = function
  | Mul | Div | Mod -> true
  | Add | Sub | Shl | Shr | Band | Bor | Bxor | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor ->
    false

let binop_of_ast = function
  | Cfront.Ast.Add -> Add
  | Cfront.Ast.Sub -> Sub
  | Cfront.Ast.Mul -> Mul
  | Cfront.Ast.Div -> Div
  | Cfront.Ast.Mod -> Mod
  | Cfront.Ast.Shl -> Shl
  | Cfront.Ast.Shr -> Shr
  | Cfront.Ast.Band -> Band
  | Cfront.Ast.Bor -> Bor
  | Cfront.Ast.Bxor -> Bxor
  | Cfront.Ast.Lt -> Lt
  | Cfront.Ast.Le -> Le
  | Cfront.Ast.Gt -> Gt
  | Cfront.Ast.Ge -> Ge
  | Cfront.Ast.Eq -> Eq
  | Cfront.Ast.Ne -> Ne
  | Cfront.Ast.Land -> Land
  | Cfront.Ast.Lor -> Lor

let unop_of_ast = function
  | Cfront.Ast.Neg -> Neg
  | Cfront.Ast.Bnot -> Bnot
  | Cfront.Ast.Lnot -> Lnot

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Land -> "&&"
  | Lor -> "||"

let unop_to_string = function Neg -> "neg" | Bnot -> "~" | Lnot -> "!"

let all_binops =
  [ Add; Sub; Mul; Div; Mod; Shl; Shr; Band; Bor; Bxor; Lt; Le; Gt; Ge; Eq; Ne; Land; Lor ]

let all_unops = [ Neg; Bnot; Lnot ]

let binop_code = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Shl -> 5
  | Shr -> 6
  | Band -> 7
  | Bor -> 8
  | Bxor -> 9
  | Lt -> 10
  | Le -> 11
  | Gt -> 12
  | Ge -> 13
  | Eq -> 14
  | Ne -> 15
  | Land -> 16
  | Lor -> 17

let unop_code = function Neg -> 0 | Bnot -> 1 | Lnot -> 2
