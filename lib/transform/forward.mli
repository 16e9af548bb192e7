(** Statespace dependency analysis (paper Section I's "dependency
    analysis"): store-to-fetch forwarding and dead-store elimination.

    Offsets are compared by {!Cdfg.Fold.relate}: two offsets are provably
    equal when they are the same node or equal constants, provably
    different when they are different constants, unknown otherwise. *)

val store_to_fetch_rule : Pass.rule
(** Each [Fe] walks its token chain towards [Ss_in]
    ({!Cdfg.Fold.anchor}): a store to a provably equal offset supplies the
    fetched value directly ({!Cdfg.Fold.stored_value}, the decision the
    builder takes before it builds a fetch); stores/deletes to
    provably different offsets are skipped (the fetch is re-anchored on
    the earlier token, exposing parallelism); an unknown offset stops the
    walk. *)

val dead_store_rule : Pass.rule
(** A store/delete whose token has exactly one consumer, that consumer
    being a store/delete to a provably equal offset, is bypassed (its
    effect is immediately overwritten). Order edges are preserved by moving
    them onto the surviving node. Reads the live use/def index. *)
