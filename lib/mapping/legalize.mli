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
    passes {!check}. Built once per graph in O(n log n); every query is
    O(1). *)

val versions : Cdfg.Graph.t -> versions
(** @raise Unmappable on a dynamic or negative offset (run {!check}
    first for its diagnostics). *)

val offset : versions -> Cdfg.Graph.id -> int
(** {!const_offset} of an [Fe]/[St]/[Del] node. *)

val latest_version : versions -> Cdfg.Graph.id -> Cdfg.Graph.id option
(** For an [Fe]/[St]/[Del] node: the nearest [St]/[Del] of the same cell
    at or above its token (walking the token inputs towards [Ss_in]);
    [None] when the cell still holds its initial value there. *)

val overwriter : versions -> Cdfg.Graph.id -> Cdfg.Graph.id option
(** For an [Fe] node: the first [St]/[Del] of the same cell below its token,
    following from each token the [St]/[Del] that consumes it (the one
    with the largest id when several do); [None] when the value it read
    is never overwritten. *)
