(** Memory-order disambiguation under an address oracle: which writers
    each fetch must stay ordered before.

    {!Cdfg.Builder.advance_token} is maximally conservative — every new
    writer (St/Del) of a region is ordered after {e all} pending fetches
    of the previous token version, even when the addresses can provably
    never collide. {!needed_writers} recomputes, per fetch, the minimal
    set of writers the fetch must precede: provably-{!Disjoint} writers
    are stepped over, and the first possibly-aliasing writer on each
    branch of the token chain is kept. The may-alias lint, the
    [cdfg.statespace-order] verifier rule
    ({!Fpfa_analysis.Verify.statespace}) and the loop-carried dependence
    analysis ({!Fpfa_analysis.Depend}) read it; the mapping flow does
    not, because phase 1 orders accesses per cell from
    {!Mapping.Legalize.versions}.

    The address oracle is a parameter — {!Fpfa_analysis.Addr.oracle}
    builds the real one; this module stays independent of the analysis
    library. *)

type relation =
  | Disjoint  (** the two accesses can never touch the same cell *)
  | Must_alias  (** provably the same address on every execution *)
  | May_alias  (** unknown — treat as aliasing *)

type oracle = Cdfg.Graph.id -> Cdfg.Graph.id -> relation
(** [oracle f w] relates the addresses of two statespace access nodes
    (Fe/St/Del) of the same region. Must be sound: [Disjoint] and
    [Must_alias] only when provable. *)

type writer_index
(** Token version -> consuming writers, precomputed once with
    {!writer_index}. The walk in {!needed_writers} resolves each
    token-chain step through it; callers examining many fetches should
    build one and pass it to every call, or each call pays a full graph
    sweep. *)

val writer_index : Cdfg.Graph.t -> writer_index

val needed_writers :
  ?index:writer_index ->
  oracle:oracle ->
  Cdfg.Graph.t ->
  Cdfg.Graph.id ->
  (Cdfg.Graph.id * relation) list
(** The writers the given fetch must stay ordered before: the first
    possibly-aliasing writer on each branch of the token chain downstream
    of the fetch's own token version (provably disjoint writers are
    stepped over). Also the checking core of
    {!Fpfa_analysis.Verify.statespace}. [index] defaults to a fresh
    {!writer_index} of the graph. *)
