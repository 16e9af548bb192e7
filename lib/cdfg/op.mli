(** Primitive arithmetic/logic operations of CDFG nodes.

    These are the word-level operations an FPFA ALU implements. Logical
    [Land]/[Lor] are strict here (both operands evaluated) — sound because
    CDFG expressions are pure and all partial operations are made total. *)

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

val eval_binop : binop -> int -> int -> int
(** Total semantics: [x/0 = x%0 = 0]; out-of-range shift amounts yield 0;
    comparisons and logical operations yield 0/1. *)

val eval_unop : unop -> int -> int

val commutative : binop -> bool

val is_multiplier_class : binop -> bool
(** Operations that occupy the ALU's multiplier stage (Mul/Div/Mod). *)

val binop_of_ast : Cfront.Ast.binop -> binop
val unop_of_ast : Cfront.Ast.unop -> unop

val binop_to_string : binop -> string
val unop_to_string : unop -> string

val all_binops : binop list
val all_unops : unop list

val binop_code : binop -> int
(** The operator's position in {!all_binops}: the byte the CDFG and
    configuration encodings write for it. *)

val unop_code : unop -> int
(** The operator's position in {!all_unops}. *)
