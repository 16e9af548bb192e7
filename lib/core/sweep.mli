(** Design-space sweeps over the tile's architecture parameters.

    The paper fixes the tile at 5 ALUs, 10 crossbar lanes and a 4-cycle
    move window; toolchain evaluation re-runs the mapper across whole
    grids of these parameters (hundreds of configurations per study).
    This module names the sweep axes, expands value lists into points,
    and maps one kernel over every point — in parallel when a
    {!Fpfa_exec.Pool.t} is supplied, with results in point order either
    way.

    [examples/design_space.ml], the [fpfa_map sweep] subcommand and the
    serve daemon's [sweep] operation are all thin renderers over {!run}
    and {!run_staged}. *)

type axis =
  | Alu_count  (** processing parts per tile (paper: 5) *)
  | Buses  (** crossbar lanes (paper: 10) *)
  | Move_window  (** cycles a move may be hoisted ahead (paper: 4) *)

val axis_name : axis -> string
(** ["alus"], ["buses"], ["window"]. *)

val axis_of_string : string -> axis option
(** Inverse of {!axis_name}. *)

type point = { axis : axis; value : int }

val points : axis -> int list -> point list

val default_alus : int list
val default_buses : int list
val default_windows : int list

val default_points : unit -> point list
(** The three default axis sweeps concatenated — the classic
    design-space study of [examples/design_space.ml]. *)

val tile_of : ?base:Fpfa_arch.Arch.tile -> point -> Fpfa_arch.Arch.tile
(** The base tile (default {!Fpfa_arch.Arch.paper_tile}) with the
    point's parameter substituted. *)

type row = {
  point : point;
  metrics : Mapping.Metrics.t;
  verified : bool option;
      (** [Some ok] when {!run} was asked to verify, [None] otherwise *)
}

exception Sweep_error of string

val run :
  ?pool:Fpfa_exec.Pool.t ->
  ?config:Flow.config ->
  ?base:Fpfa_arch.Arch.tile ->
  ?func:string ->
  ?verify:bool ->
  ?memory_init:(string * int array) list ->
  source:string ->
  point list ->
  row list
(** [run ~source points] runs the front end and the minimiser on
    [source] once, then maps every point by rewinding that checkpoint to
    the point's tile (substituted into [config]); see {!run_staged}.
    Rows come back in input order and are byte-identical to mapping each
    point from scratch with {!Flow.map_source}, whether or not a pool is
    supplied — the tests assert both. With [~verify:true] each mapped
    result is additionally checked ({!Flow.verify}) on [memory_init]
    (default empty). No point, no compile.
    @raise Sweep_error wrapping a flow failure or an invalid tile
    ({!Fpfa_arch.Arch.validate}) with the point that caused it; a
    front-end or minimisation failure names the first point. *)

val run_staged :
  ?pool:Fpfa_exec.Pool.t ->
  ?base:Fpfa_arch.Arch.tile ->
  ?verify:bool ->
  ?memory_init:(string * int array) list ->
  Flow.Staged.t ->
  point list ->
  row list
(** {!run} from a checkpoint the caller built under the sweep's config
    (the serve daemon digests its raw graph first). A checkpoint at
    [Built] is minimised once; the checkpoint is then frozen
    ({!Flow.Staged.freeze}) and each point rewinds it on the pool, so
    every point that keeps the ALU data path reuses one clustering.
    Each point runs in a ["sweep"]/["point"] span carrying its axis and
    value. *)
