(** Bit-level value analysis: known bits x interval, plus demanded bits.

    The forward half is the {!Transform.Absdom} product fixpoint — a
    tri-state bit vector and a saturating interval per value node, with
    transfer functions matching {!Cdfg.Eval}'s word/wrap semantics
    exactly. On top of it this module runs a {e backward demanded-bits}
    sweep: which bits of each value can still influence an observable
    (a named output, a statespace effect, or a select condition). The
    two directions meet in the [bits.*] diagnostics and the [check
    --bits] report; the forward facts alone certify
    {!Transform.Bitopt}'s rewrites (see {!Verify.bits}).

    Facts depend only on the graph and the region input ranges, so they
    can be recomputed from scratch at any time — the property the
    verification replay relies on.

    Diagnostic rule ids:
    - ["bits.dead-masked-store"] (warning): a stored value masks away
      bits that are provably set — computed information is discarded at
      the store;
    - ["bits.always-taken-select"] (warning): a select whose condition
      is provably zero or provably nonzero (the certified pass folds
      these when enabled; the lint catches graphs audited without it);
    - ["bits.widening-overflow"] (warning): the value may escape the signed
      datapath width — the repository's one datapath-width check. Its
      interval is outside the width and its known bits do not prove it
      sign-extends a [width]-bit word; a value with contradictory high
      bits (some known 0, some known 1) provably exceeds the width. *)

type t
(** Forward facts plus the demanded-bits masks of one graph. *)

val analyze :
  ?width:int ->
  ?input_ranges:(string * Fpfa_util.Interval.t) list ->
  Cdfg.Graph.t ->
  t
(** One {!Transform.Absdom.analyze} fixpoint and one demanded-bits sweep.
    [width] (default 16) bounds undeclared region inputs. *)

val forward : t -> Transform.Absdom.facts
(** The forward facts, to share with {!Addr.of_facts}. *)

val value : t -> Cdfg.Graph.id -> Transform.Absdom.t
(** {!Transform.Absdom.top} for unanalysed ids. *)

val lookup : t -> Transform.Bitopt.lookup
(** {!value}, packaged for {!Transform.Bitopt}. *)

val demanded : t -> Cdfg.Graph.id -> int
(** Mask of bits of the node's value that may influence an observable;
    [-1] (all demanded) for unanalysed ids, [0] for values nothing
    observable depends on. *)

val iterations : t -> int
(** Forward fixpoint sweeps (diagnostic; bounded). *)

val diagnostics : ?width:int -> ?facts:t -> Cdfg.Graph.t -> Fpfa_diag.Diag.t list
(** The [bits.*] lints (rule ids above). [facts] defaults to a fresh
    {!analyze} at [width] (default 16). *)

val facts_to_json : t -> Cdfg.Graph.t -> Fpfa_util.Json.t
(** Per-value summaries, sorted by node id:
    [{"node": .., "known": <count of known bits>,
      "zeros": .., "ones": .., "demanded": ..,
      "lo": ..|null, "hi": ..|null, "const": ..|null}]
    (masks as decimal integers of the native word; infinite interval
    bounds are null). *)
