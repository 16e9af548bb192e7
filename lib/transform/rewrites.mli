(** Local value rewrites: constant folding and algebraic simplification. *)

val const_fold_rule : Pass.rule
(** Folds [Binop]/[Unop] nodes with constant inputs into [Const] nodes and
    a [Mux] with a constant select into the input it picks, as
    {!Cdfg.Fold} decides (the builder asks the same before it adds such a
    node). *)

val algebraic_rule : Pass.rule
(** Identity/absorption rewrites that need no constant operands on both
    sides: [x+0], [x*1], [x*0], [x-0], [x/1], [x<<0], [x&0], [x|0], [x^0],
    [x-x], [x^x], [Mux (c, a, a)], [Mux (!c, a, b)] and friends. *)
