(** Statespace address analysis: a forward abstract interpretation that
    assigns every address operand a value in a constant / interval /
    affine domain, and decides disjointness of memory accesses.

    Each value node gets an {!aval}:

    - [itv] — the interval half of the {!Transform.Absdom} facts
      (constants are exact singletons);
    - [affine] — optionally an {e exact} linear form
      [base + stride * sym] over an opaque symbol node (e.g. a fetch
      result): the equation holds for the concrete value on every
      execution. Derived forms (through [+], [-], constant [*], [<<],
      unary [-]) are only built when the {!Fpfa_util.Interval} saturating
      transfer of the operands' intervals is finite, which certifies the
      concrete arithmetic did not wrap the machine integer (the node's
      own Absdom interval does not: known bits can bound a wrapped
      value); any other value node is its own symbol ([0 + 1*itself]),
      which is exact unconditionally.

    On top of the facts, {!relation} decides whether two statespace
    accesses (Fe/St/Del) can collide: different regions never do;
    same-symbol affine forms collide iff [Δbase + Δstride·v = 0] has a
    solution [v] inside the symbol's interval (checked by divisibility
    and interval membership); disjoint intervals never collide. The
    result feeds {!Transform.Disambig.needed_writers}, which the
    may-alias lint, {!Depend} and {!Verify.statespace} (the legality
    replay) read. The mapping flow runs none of this: phase 1 orders
    accesses per cell from {!Mapping.Legalize.versions}. *)

type affine = { base : int; stride : int; sym : Cdfg.Graph.id }
(** The exact form [base + stride * value(sym)]; [stride <> 0]. *)

type aval = { itv : Fpfa_util.Interval.t; affine : affine option }

type access = {
  node : Cdfg.Graph.id;
  region : string;
  access_kind : string;  (** ["FE"], ["ST"] or ["DEL"] *)
  offset : aval;
}

type t
(** The facts of one analysed graph. Facts depend only on values and
    regions — never on order edges — so they remain valid across
    order-edge edits of the same graph. *)

val of_facts : Transform.Absdom.facts -> Cdfg.Graph.t -> t
(** One topological sweep for the affine forms over the given
    {!Transform.Absdom} facts of the graph — the facts
    [Fpfa_core.Flow.audit] shares with the lints and {!Bits}. *)

val analyze :
  ?width:int ->
  ?input_ranges:(string * Fpfa_util.Interval.t) list ->
  Cdfg.Graph.t ->
  t
(** {!of_facts} over a fresh {!Transform.Absdom.analyze}; [width]
    (default 16) bounds unknown region contents. *)

val value : t -> Cdfg.Graph.id -> aval option
(** The abstract value of a value-producing node. *)

val access : t -> Cdfg.Graph.id -> access option
(** The address fact of one Fe/St/Del node. *)

val accesses : t -> access list
(** Every statespace access, sorted by node id. *)

val relation :
  t -> Cdfg.Graph.id -> Cdfg.Graph.id -> Transform.Disambig.relation
(** Relates the addresses of two access nodes. Sound: [Disjoint] and
    [Must_alias] only when provable; anything uncertain (including ids
    that are not accesses) is [May_alias]. *)

val oracle : t -> Transform.Disambig.oracle
(** {!relation}, packaged for {!Transform.Disambig.needed_writers}. *)

val must_disjoint : t -> Cdfg.Graph.id -> Cdfg.Graph.id -> bool

val pp_aval : Format.formatter -> aval -> unit

val facts_to_json : t -> string
(** The per-access address facts as a JSON array, sorted by node id:
    [{"node": .., "kind": "FE", "region": "a",
      "offset": {"lo": .., "hi": .., "affine": {"base": ..,
      "stride": .., "sym": ..} | null}}]. Infinite bounds are [null]. *)
