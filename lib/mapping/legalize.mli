(** Mappability checks run before clustering.

    The mapping phases handle DAGs with statically known statespace
    addresses (the paper's scope: fully unrolled loops, Section VI). *)

exception Unmappable of string

val const_offset : Cdfg.Graph.t -> Cdfg.Graph.id -> int
(** The constant offset operand of an [Fe]/[St]/[Del] node.
    @raise Unmappable when the offset is not a constant. *)

val check_diags : Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** Every mappability violation as a diagnostic — rule ids
    ["ss.offset-dynamic"], ["ss.offset-negative"],
    ["ss.output-not-stored"] — in one O(nodes + outputs) scan (the set of
    stored value ids is computed once, not per named output). Empty when
    the graph is mappable. *)

val check : Cdfg.Graph.t -> unit
(** [check_diags], raising on the first violation.
    @raise Unmappable when the graph contains a dynamic statespace offset,
    or a named output that is not also stored to a region (results must be
    memory-resident to be observable on the tile). *)

(** {2 Statespace versions} *)

type versions
(** Which version of a statespace cell each access sees, for a graph that
    passes {!check}, and what phase 3 reads per region and per mutator
    ({!max_offset}, {!destroyed_by}). Built once per graph in linear
    time, immutable afterwards (safe to read from several domains);
    every query is O(1) but {!max_offset}, which is linear in the number
    of regions. {!Cluster} builds it with the clustering. *)

val versions : Cdfg.Graph.t -> versions
(** @raise Unmappable on a dynamic or negative offset (run {!check}
    first for its diagnostics). *)

val access_count : versions -> int
(** The number of [Fe]/[St]/[Del] nodes. *)

val access_index : versions -> Cdfg.Graph.id -> int
(** For an [Fe]/[St]/[Del] node, its number among them, below
    {!access_count}, so a pass can keep per-access state in an array of
    that size; -1 for any other node. *)

val offset : versions -> Cdfg.Graph.id -> int
(** {!const_offset} of an [Fe]/[St]/[Del] node. *)

val region_index : versions -> Cdfg.Graph.id -> int
(** For an [Fe]/[St]/[Del] node, the position of its region in
    {!Cdfg.Graph.regions}; -1 for any other node or an undeclared
    region. *)

val latest_version : versions -> Cdfg.Graph.id -> Cdfg.Graph.id option
(** For an [Fe]/[St]/[Del] node: the nearest [St]/[Del] of the same cell
    at or above its token (walking the token inputs towards [Ss_in]);
    [None] when the cell still holds its initial value there. *)

val overwriter : versions -> Cdfg.Graph.id -> Cdfg.Graph.id option
(** For an [Fe] node: the first [St]/[Del] of the same cell below its token,
    following from each token the [St]/[Del] that consumes it (the one
    with the largest id when several do); [None] when the value it read
    is never overwritten. *)

val destroyed_by : versions -> Cdfg.Graph.id -> Cdfg.Graph.id list
(** For a [St]/[Del] node: the fetches whose {!overwriter} it is, that is
    whose value it destroys, in descending id order; [[]] for any other
    node. *)

val max_offset : versions -> string -> int
(** The largest offset any [Fe]/[St]/[Del] of the region accesses; [-1]
    when none does. *)
