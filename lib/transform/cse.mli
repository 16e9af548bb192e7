(** Common subexpression elimination.

    Merges structurally identical pure nodes ([Const], [Binop], [Unop],
    [Mux]) and identical fetches ([Fe] with the same token and offset —
    sound because fetches of one token commute and see the same snapshot).
    Commutative operators are canonicalised by sorting their operands.
    Stores, deletes and statespace endpoints are never merged. *)

val rule : Pass.rule
(** Keeps a value-number table for the whole engine run; stale entries
    (removed or re-keyed representatives) are detected and replaced
    lazily at lookup time. *)
