(** Dead node elimination.

    Removes nodes with no data uses and no named-output references.
    [Ss_out] nodes are roots (region contents are observable). A node that
    is only referenced by order-only edges is still dead: those edges
    protect a read whose value nobody consumes, so they are dropped with
    the node. *)

val rule : Pass.rule
(** Removes one zero-use non-root node per application; the removal marks
    its producers use-dirty so the engine cascades the sweep upwards
    without any whole-graph marking. *)
