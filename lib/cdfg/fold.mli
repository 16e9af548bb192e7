(** The rewrite decisions the builder and the simplifier share.

    {!Builder} asks them before it adds a fetch or an operation, and the
    simplifier's [store-to-fetch] and [const-fold] rules
    ({!Transform.Forward}, {!Transform.Rewrites}) ask them of nodes that
    already exist, so each rewrite is decided in one place. Every
    function reads the graph only. *)

(** {2 Store-to-fetch} *)

type offset_relation = Equal | Different | Unknown

val relate : Graph.t -> Graph.id -> Graph.id -> offset_relation
(** Provable relation between two offset-producing nodes: equal when they
    are the same node or equal constants, different when they are
    different constants, unknown otherwise. *)

val anchor : Graph.t -> offset:Graph.id -> Graph.id -> Graph.id
(** [anchor g ~offset token] walks the token chain from [token] upwards
    past stores and deletes to offsets provably different from [offset],
    and returns the first token that may alias it (or the chain's
    start): the earliest token a fetch of [offset] on [token] can read
    from. *)

val stored_value : Graph.t -> offset:Graph.id -> Graph.id -> Graph.id
(** [stored_value g ~offset stop], for [stop] the {!anchor} of a fetch of
    [offset]: the value the fetch reads when [stop] is a store to a
    provably equal offset, [-1] otherwise. A delete of an equal offset
    keeps the fetch (reading a deleted cell is a runtime error that must
    stay visible), and so do an unknown offset and the chain's start. *)

(** {2 Constant folding} *)

val binop : Graph.t -> Op.binop -> Graph.id -> Graph.id -> int option
(** [binop g op a b]: the value of [op] on inputs [a] and [b] when both
    are constants ({!Op.eval_binop}). *)

val unop : Graph.t -> Op.unop -> Graph.id -> int option
(** [unop g op a]: the value of [op] on [a] when it is a constant
    ({!Op.eval_unop}). *)

val mux : Graph.t -> cond:Graph.id -> Graph.id -> Graph.id -> Graph.id option
(** [mux g ~cond if_true if_false]: the input a constant select picks
    ([if_true] when it is non-zero). *)
