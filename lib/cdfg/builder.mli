(** Translation of the C subset into a CDFG (paper Section III-V).

    Every scalar and array becomes a statespace region; reads become [Fe]
    nodes and writes become [St] nodes threaded on the region's token.
    [if]/[else] is if-converted: assignments under a condition [p] store
    [Mux (p, new, old)], so the graph stays a DAG. Loops must have been
    fully unrolled beforehand ({!Cfront.Unroll}); a residual loop is
    rejected.

    The resulting graph is close to the "generated CDFG" of paper
    Section V — one [St] per write, one [Fe] per read, constants shared —
    with two rewrites applied as each node is asked for, through the
    decisions the simplifier's rules use ({!Fold}):
    - a read that its region's token chain proves to read a stored value
      (no store in between may alias it) is that value, not a fetch;
    - an operation on constants is the constant of its result, and a
      mux on a constant select is the input it picks.

    A node such a rewrite replaces is never built, and the surviving
    nodes keep their relative id order. The {!Transform} passes then
    minimise the graph, running every rule as before. *)

exception Unsupported of string
(** Residual loop, predicated/early [return], or other construct outside the
    mappable subset. *)

val build : ?delete_locals:bool -> Ast_in.func_with_env -> Graph.t
(** Builds the CDFG of one (loop-free) function. When [delete_locals] is
    true, declared (non-implicit) regions are [Del]eted from the statespace
    before the final [Ss_out] (paper Fig. 2's DEL primitive); default
    false so that final local values remain observable.

    The graph is validated before being returned, and its mutation
    journal ({!Graph.drain_dirty}) is empty. *)

val build_func : ?delete_locals:bool -> Cfront.Ast.func -> Graph.t
(** [build] after running {!Cfront.Sema.check_func}. *)

val build_program : ?delete_locals:bool -> ?func:string -> string -> Graph.t
(** Convenience: parse C source, inline user-defined calls, unroll loops,
    then build the CDFG of function [func] (default ["main"]).
    @raise Not_found when the function does not exist. *)
