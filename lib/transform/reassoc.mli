(** Rebalancing of associative operator chains.

    The left-leaning accumulation chain produced by sequential C code
    ([((s0+s1)+s2)+...]) serialises the whole computation. Paper Fig. 3
    shows the FIR sum as a balanced adder tree, so rebalancing is part of
    "full simplification". Chains of [Add], [Mul], [Band], [Bor], [Bxor]
    whose intermediate results have a single use are rebuilt as balanced
    trees; the rewrite fires only when it strictly reduces the chain's
    depth, which guarantees termination. *)

val rule : Pass.rule
(** A settled rule ({!Pass.settled}): chain membership and single-use
    tests read the live use/def index, so it fires only once dead code is
    collected. *)
