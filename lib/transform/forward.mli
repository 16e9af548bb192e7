(** Statespace dependency analysis (paper Section I's "dependency
    analysis"): store-to-fetch forwarding and dead-store elimination.

    Offsets are compared after constant folding: two offsets are provably
    equal when they are the same node or equal constants, provably
    different when they are different constants, unknown otherwise. *)

type offset_relation = Equal | Different | Unknown

val relate :
  Cdfg.Graph.t -> Cdfg.Graph.id -> Cdfg.Graph.id -> offset_relation
(** Provable relation between two offset-producing nodes (used by the
    aliasing decisions below; exported for analyses and tests that need
    the same notion of "may alias"). *)

val store_to_fetch_rule : Pass.rule
(** Each [Fe] walks its token chain towards [Ss_in]: a store to a provably
    equal offset supplies the fetched value directly; stores/deletes to
    provably different offsets are skipped (the fetch is re-anchored on the
    earlier token, exposing parallelism); an unknown offset stops the
    walk. *)

val dead_store_rule : Pass.rule
(** A store/delete whose token has exactly one consumer, that consumer
    being a store/delete to a provably equal offset, is bypassed (its
    effect is immediately overwritten). Order edges are preserved by moving
    them onto the surviving node. Reads the live use/def index. *)
