(** Shared product abstract domain: known bits x saturating interval.

    The repository's one interval engine and the single home of the
    per-[Cdfg.Op] transfer functions: bitopt, its replay, the bit
    analysis with its datapath-width lint, and the address analysis
    ({!Fpfa_analysis.Addr}) all read these facts. The interval half is
    wrap-aware saturating arithmetic over {!Fpfa_util.Interval}; the bits
    half is a tri-state bit vector over the native 63-bit word tracking,
    for every bit position, whether it is known-0, known-1 or unknown.
    Every transfer matches {!Cdfg.Eval}'s total word/wrap semantics
    exactly: shifts out of [0, 62] yield 0, division and modulo by zero
    yield 0, multiplication wraps mod 2^63.

    Soundness contract (what {!Fpfa_analysis.Verify}[.bits] replays): for
    every node, the abstract value {!mem}-contains the concrete value
    [Eval] computes on any input consistent with the region input
    ranges. *)

module I = Fpfa_util.Interval

(** {2 Known bits} *)

type bits = { zeros : int; ones : int }
(** Bit [i] of [zeros] set: the value's bit [i] is known to be 0; of
    [ones]: known to be 1. All 63 bits of the native word are tracked
    (bit 62 is the sign bit). Reachable values keep
    [zeros land ones = 0]; a contradictory mask denotes an unreachable
    (bottom) value and is never produced for a node [Eval] executes. *)

val bits_top : bits
val bits_const : int -> bits

val bits_known : bits -> int
(** Mask of known bit positions, [zeros lor ones]. *)

val bits_is_const : bits -> int option
(** [Some v] when every bit is known. *)

val bits_mem : int -> bits -> bool
(** Concretisation membership: no known-0 bit set, every known-1 bit set. *)

val bits_join : bits -> bits -> bits
(** Lattice join: keeps only the knowledge both sides share. *)

val bits_not : bits -> bits

val bits_add : ?carry:int -> bits -> bits -> bits
(** Tri-state ripple-carry addition ([carry] is the initial carry-in, 0 or
    1); the exact bit-level abstraction of native [( + )]. *)

val low_known_run : bits -> int
(** Number of contiguous low bits that are fully known. *)

val trailing_zero_run : bits -> int
(** Number of contiguous low bits known to be 0. *)

val pp_bits : Format.formatter -> bits -> unit

(** {2 The product} *)

type t = { bits : bits; range : I.t }

val top : t
val const : int -> t
val join : t -> t -> t

val mem : int -> t -> bool
(** Concretisation membership. A saturated (infinite) interval bound is a
    sentinel for "beyond the finite band" and constrains nothing in its
    direction. *)

val is_const : t -> int option
(** Singleton by either component (all bits known, or [lo = hi]). *)

val known_nonzero : t -> bool
(** Provably nonzero: some bit known-1, or 0 outside the interval. *)

val of_interval : I.t -> t
(** Interval with the bit knowledge it implies: the common high-bit
    prefix of [lo] and [hi] is known. *)

val refine : t -> t
(** Reduced-product step: pushes interval knowledge into the bits
    (high-prefix rule) and bit knowledge back into the interval (bounds
    from known bits, singleton collapse). Applied by {!binop}/{!unop};
    idempotent. *)

val pp : Format.formatter -> t -> unit

(** {2 Interval-only transfers} *)

val binop_interval : Cdfg.Op.binop -> I.t -> I.t -> I.t
val unop_interval : Cdfg.Op.unop -> I.t -> I.t

(** {2 Product transfers} *)

val binop : Cdfg.Op.binop -> t -> t -> t
val unop : Cdfg.Op.unop -> t -> t

val mux : t -> t -> t -> t
(** [mux cond if_true if_false]: copies the decided branch when the
    condition is provably zero / nonzero, joins otherwise. *)

(** {2 Forward analysis over a CDFG} *)

type facts
(** Per-node abstract values of one graph, plus the per-region content
    join. Facts depend only on the graph and the input ranges — they can
    be recomputed from scratch at any time, which is what the
    verification replay does. *)

val analyze :
  ?width:int -> ?input_ranges:(string * I.t) list -> Cdfg.Graph.t -> facts
(** Product fixpoint in topological order with region-content feedback
    (bounded iterations; if feedback has not settled, regions are pinned
    at top and one exact feed-forward sweep recomputes every value).
    [width] (default 16) bounds undeclared region inputs to the signed
    [width]-bit interval. Each call records one ["absdom"] span, so
    [--stats] counts the fixpoints a run paid for. *)

val value : facts -> Cdfg.Graph.id -> t
(** {!top} for ids the analysis did not reach (token producers). *)

val region_fact : facts -> string -> t option
val iterations : facts -> int

val fold_values : facts -> init:'a -> f:('a -> Cdfg.Graph.id -> t -> 'a) -> 'a
(** Folds over analysed value nodes in ascending id order. *)
