(** The end-to-end FPFA mapping flow (the paper's four steps):

    C source → CDFG (translate) → minimised CDFG (transform) → clusters
    (phase 1) → schedule (phase 2) → per-cycle tile job (phase 3).

    This is the library's front door; each stage result stays accessible
    for inspection, and {!verify} checks the mapped job against the
    reference interpreter. *)

type simplifier =
  | Worklist of Transform.Pass.rule list
      (** incremental worklist engine (default; near-linear) *)
  | Fixpoint of Transform.Pass.t list
      (** legacy whole-graph fixpoint (reference oracle) *)

type config = {
  tile : Fpfa_arch.Arch.tile;
  caps : Fpfa_arch.Arch.alu_caps option;
      (** clustering data path; defaults to [tile.alu] *)
  cluster_with :
    caps:Fpfa_arch.Arch.alu_caps -> Cdfg.Graph.t -> Mapping.Cluster.t;
      (** phase-1 algorithm; defaults to {!Mapping.Cluster.run} (greedy
          template matching); {!Mapping.Cluster.sarkar} is the
          edge-zeroing alternative *)
  simplify : simplifier;  (** simplification pipeline *)
  alloc_options : Mapping.Alloc.options;
  max_unroll : int;
  delete_locals : bool;
  verify_each : bool;
      (** run the structural verifier ({!Fpfa_analysis.Verify.pass_hook})
          after every simplification rule firing; an invariant-breaking
          rule surfaces as a [Flow_error] naming the rule (default
          false — the `--verify-each-pass` CLI mode) *)
  disambiguate : bool;
      (** prune provably-false anti-dependence order edges after
          simplification ({!Fpfa_analysis.Addr.prune}; default true).
          Under [verify_each] every edit batch is additionally audited by
          the {!Fpfa_analysis.Verify.statespace} replay. *)
  bitopt : bool;
      (** certified bit-level optimisation after simplification
          ({!Transform.Bitopt}; default true): fold constant-bit values,
          delete redundant masks and sign-extensions, demote
          multiplier-class ops by powers of two into shifts, collapse
          decided selects. Every claim batch is re-proved from
          independently recomputed facts by the
          {!Fpfa_analysis.Verify.bits} replay {e before} it is applied —
          unconditionally, not only under [verify_each]; a claim the
          replay cannot re-derive fails the flow blaming rule
          ["bitopt"]. *)
  bitopt_width : int;
      (** signed input width in bits the bit-level analysis assumes for
          region inputs (default 16, matching [fpfa_map --check-width]).
          Semantics-changing: the rewrites are only valid for inputs
          inside [-2^(width-1), 2^(width-1) - 1], so the serve daemon
          keys its mapping-cache fingerprint on it alongside the
          [bitopt] toggle. Both the stage and its {!Fpfa_analysis.Verify.bits}
          replay use the same width. *)
  incremental : bool;
      (** keep the pre-disambiguation minimised snapshot for
          {!Staged.rewind_patched} and canonically renumber the minimised
          graph ({!Cdfg.Serialize.renumber}) so isomorphic minimised
          graphs map to byte-identical jobs (default false — the serve
          daemon turns it on) *)
}

val default_config : config
(** Paper tile, paper ALU, default simplification, paper allocation. *)

type result = {
  source : string;
  func : Cfront.Ast.func;  (** after unrolling *)
  raw_graph : Cdfg.Graph.t;  (** CDFG before minimisation *)
  graph : Cdfg.Graph.t;  (** minimised CDFG *)
  simplify_report : Transform.Simplify.report;
  bitopt_report : Transform.Bitopt.report;
      (** bit-level rewrite tallies (all zero when [bitopt] was off) *)
  disambig_report : Transform.Disambig.report;
      (** order-edge pruning tallies (all zero when [disambiguate] was
          off) *)
  clustering : Mapping.Cluster.t;
  schedule : Mapping.Sched.t;
  job : Mapping.Job.t;
  metrics : Mapping.Metrics.t;
}

exception Flow_error of string

val map_source :
  ?pool:Fpfa_exec.Pool.t -> ?config:config -> ?func:string -> string -> result
(** Runs the full flow on C source text: user-defined function calls are
    inlined first, then the (call-free) function [func] (default ["main"])
    is mapped.

    With [?pool], independent stages of {e this one compile} overlap on
    the pool's domains (each validator runs concurrently with the stage
    consuming the same artifact), and the minimised graph is
    {!Cdfg.Graph.freeze}d after disambiguation so domains share it
    without copying — [result.graph] is then immutable. Results and
    raised exceptions are identical to the sequential run. Without a pool
    nothing is frozen and behaviour is exactly as before.
    @raise Flow_error wrapping any stage failure with stage context. *)

val map_func : ?pool:Fpfa_exec.Pool.t -> ?config:config -> Cfront.Ast.func -> result

val map_graph : ?pool:Fpfa_exec.Pool.t -> ?config:config -> Cdfg.Graph.t -> result
(** Entry point for callers that build CDFGs directly (e.g. random-DAG
    benchmarks). The graph is copied, minimised, and mapped; [source] and
    [func] hold placeholders. *)

(** {2 Resumable staged compilation}

    A compilation as a {e value} rather than a one-shot call: the flow's
    checkpoints (minimised graph, clustering, schedule, allocation) are
    held alongside the config that produced them. {!map_source},
    {!map_func} and {!map_graph} are now [of_* |> run |> to_result] over
    this representation — same stages, same spans, same exceptions — and
    callers that compile near-identical requests repeatedly (the serve
    daemon, design-space sweeps) {!Staged.rewind} a finished value to the
    first phase a config change dirties instead of recompiling from
    scratch: a new allocator option re-enters at [allocate], a new ALU
    count at [schedule], everything before is reused as-is. *)
module Staged : sig
  type t

  type phase = Built | Minimised | Clustered | Scheduled | Allocated
  (** [Built] is the frontend checkpoint (parsed, inlined, unrolled,
      CDFG built); each later constructor names the last completed
      mapping phase. *)

  val phase_name : phase -> string
  (** ["built"], ["minimised"], ["clustered"], ["scheduled"],
      ["allocated"]. *)

  val of_source : config:config -> ?func:string -> string -> t
  (** Runs the front end (parse, inline, unroll, build) only.
      @raise Flow_error as {!map_source} would. *)

  val of_func : config:config -> Cfront.Ast.func -> t
  val of_graph : config:config -> Cdfg.Graph.t -> t

  val phase : t -> phase
  (** Last completed phase. *)

  val config : t -> config

  val raw_graph : t -> Cdfg.Graph.t
  (** The CDFG the mapping phases start from — what
      {!Cdfg.Serialize.digest} keys the content-addressed cache on. *)

  val advance : ?pool:Fpfa_exec.Pool.t -> t -> t
  (** Runs exactly the next phase (no-op at [Allocated]). *)

  val run : ?pool:Fpfa_exec.Pool.t -> t -> t
  (** Advances to [Allocated]. Starting from [Built] this is precisely
      the mapping pipeline of {!map_source} (one ["map"] span wrapping
      the remaining stages); resuming later re-runs only what is
      missing. *)

  val to_result : t -> result
  (** @raise Flow_error unless the phase is [Allocated]. *)

  val rewind : t -> config:config -> t option
  (** [rewind s ~config] is a staged value under the new config that
      keeps the longest prefix of checkpoints whose phase inputs are
      unchanged — compare {!phase} before and after to see where a
      subsequent {!run} re-enters. [None] when the front-end inputs
      ([max_unroll], [delete_locals]) changed: the raw graph itself is
      stale, start over with [of_source]. Fields holding closures
      ([simplify], [cluster_with]) compare physically, so sharing the
      field value rewinds precisely and a fresh closure conservatively
      re-runs from that phase. *)

  val rewind_patched : t -> fresh:t -> (t * int, string) Stdlib.result
  (** [rewind_patched cached ~fresh] re-enters the flow at [Minimised]
      {e incrementally}: the freshly built raw graph ([fresh], at phase
      [Built]) is structurally diffed against [cached]'s raw graph
      ({!Cdfg.Diff.diff}), the changed cone is grafted onto a copy of
      [cached]'s pre-disambiguation minimised snapshot
      ({!Cdfg.Diff.apply}), and the simplifier worklist drains from only
      the dirty seed. Disambiguation and canonical renumbering then run
      as in a cold compile, so a subsequent {!run} produces a job
      byte-identical to the cold compile of [fresh]. Returns the staged
      value at [Minimised] plus the dirty-seed size. [Error] (with the
      reason) whenever the incremental license is missing — no snapshot,
      legacy fixpoint engine, [incremental] off, graphs too different, or
      a matched boundary producer that minimisation removed — and the
      caller should compile [fresh] cold. *)

  val freeze : t -> unit
  (** Freezes the raw, pre-disambiguation-snapshot and minimised graphs
      ({!Cdfg.Graph.freeze}) so the value can be shared read-only across
      domains — what the serve daemon does before caching. Later rewinds
      still work: re-run phases copy the raw graph, never mutate it. *)
end

val audit :
  ?pool:Fpfa_exec.Pool.t ->
  config:config ->
  result ->
  Fpfa_diag.Diag.t list * Fpfa_analysis.Addr.t option
(** Every static diagnostic for a mapped result in one sorted list:
    structural verifier on the raw and minimised graphs, mappability +
    statespace legality + lints on the minimised graph (sharing one
    address analysis, returned as the second component when structure is
    sound), the {!Fpfa_analysis.Mapcheck} validators replaying
    cluster/schedule/allocation legality, and the
    {!Fpfa_analysis.Depend} loop-carried dependence analysis re-run from
    the pre-unroll source (skipped for graph-only results with no
    source), and the {!Fpfa_analysis.Bits} bit-level lints
    (dead-masked stores, decided selects, bit-refined width overflows)
    on the minimised graph. The eight diagnostic families are
    independent, so with
    [?pool] they run concurrently — the result graphs are frozen first
    (see {!map_source}); output is identical to the sequential run. *)

val verify :
  ?memory_init:(string * int array) list -> result -> bool
(** Conformance on the given inputs: the CDFG evaluator before and after
    minimisation agree, and the tile simulator's memory matches the
    evaluator's. The reference interpreter is not run; see
    {!conforms_to_interp}. *)

val conforms_to_interp :
  ?memory_init:(string * int array) list -> result -> bool
(** The reference-interpreter leg: runs [main] of the inlined
    [result.source] in {!Cfront.Interp} and compares its final state with
    the tile simulator's memory ({!Cdfg.Eval.conforms_to_interp}); a
    return value is compared with the evaluator's named output. [false]
    when the interpreter faults. Meaningful only when [main] is the mapped
    function. *)

val pp_summary : Format.formatter -> result -> unit
