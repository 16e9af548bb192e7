(** The end-to-end FPFA mapping flow (the paper's four steps):

    C source → CDFG (translate) → minimised CDFG (transform) → clusters
    (phase 1) → schedule (phase 2) → per-cycle tile job (phase 3).

    This is the library's front door; each stage result stays accessible
    for inspection, and {!verify} checks the mapped job against the
    reference interpreter. *)

type config = {
  tile : Fpfa_arch.Arch.tile;
  caps : Fpfa_arch.Arch.alu_caps option;
      (** clustering data path; defaults to [tile.alu] *)
  cluster_with :
    caps:Fpfa_arch.Arch.alu_caps -> Cdfg.Graph.t -> Mapping.Cluster.t;
      (** phase-1 algorithm; defaults to {!Mapping.Cluster.run} (greedy
          template matching); {!Mapping.Cluster.sarkar} is the
          edge-zeroing alternative *)
  alloc_options : Mapping.Alloc.options;
  max_unroll : int;
  delete_locals : bool;
  verify_each : bool;
      (** run the structural verifier ({!Fpfa_analysis.Verify.pass_hook})
          after every simplification rule firing; an invariant-breaking
          rule surfaces as a [Flow_error] naming the rule (default
          false — the `--verify-each-pass` CLI mode) *)
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
  renumber : bool;
      (** canonically renumber the minimised graph
          ({!Cdfg.Serialize.renumber}) so isomorphic minimised graphs map
          to byte-identical jobs (default false — the serve daemon turns
          it on) *)
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
  clustering : Mapping.Cluster.t;
  schedule : Mapping.Sched.t;
  job : Mapping.Job.t;
  metrics : Mapping.Metrics.t;
}

exception Flow_error of string

val map_source : ?config:config -> ?func:string -> string -> result
(** Runs the full flow on C source text: user-defined function calls are
    inlined first, then the (call-free) function [func] (default ["main"])
    is mapped.
    @raise Flow_error wrapping any stage failure with stage context. *)

val map_func : ?config:config -> Cfront.Ast.func -> result

val map_graph : ?config:config -> Cdfg.Graph.t -> result
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
  (** Validates a copy of the caller's graph (the builder validates the
      graphs of {!of_source} and {!of_func}), so each entry path validates
      its raw graph exactly once.
      @raise Flow_error when the graph is invalid. *)

  val frontend_key : config:config -> func:string -> string -> Digest.t
  (** The MD5 of everything {!of_source} reads: the function name, the
      source text and the config fields the front end uses
      ([max_unroll], [delete_locals]; {!rewind} keeps the raw graph
      exactly while these agree). Equal keys build the same raw graph,
      so a caller may remember what it derived from one (the serve
      daemon keeps the raw graph's digest) instead of running the front
      end again. *)

  val phase : t -> phase
  (** Last completed phase. *)

  val config : t -> config

  val raw_graph : t -> Cdfg.Graph.t
  (** The CDFG the mapping phases start from — what
      {!Cdfg.Serialize.digest} keys the content-addressed cache on. *)

  val advance : t -> t
  (** Runs exactly the next phase (no-op at [Allocated]). From
      [Minimised] it returns the stored clustering when one was computed
      under the same [cluster_with] and ALU data path (see {!rewind});
      such a hit records no ["cluster"] or ["cluster-validate"] span and
      bumps the Obs counter ["flow.cluster_reused"]. A clustering it
      computes is validated against the data path
      ({!Mapping.Cluster.validate}) before it is stored, so a rejected
      one raises [Flow_error] and is never reused. From [Clustered] it
      likewise returns the stored schedule of this clustering for the
      tile's ALU count: a hit records no ["schedule"] or
      ["schedule-validate"] span and bumps ["flow.schedule_reused"]; a
      schedule it computes is validated ({!Mapping.Sched.validate})
      before it is stored. *)

  val run : t -> t
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
      stale, start over with [of_source]. The closure field
      [cluster_with] compares physically, so sharing the field value
      rewinds precisely and a fresh closure conservatively re-runs from
      that phase.

      Re-entry points, one knob at a time: the move window, the bus
      count or [alloc_options] re-enter at [Scheduled]; the ALU count at
      [Clustered]; [caps] (or the tile's ALU when [caps] is [None]) or
      [cluster_with] at [Minimised]; [bitopt], [bitopt_width],
      [renumber] or [verify_each] at [Built].

      A minimised checkpoint carries one clustering cell: the last
      clustering computed from its minimised graph, with the config it
      ran under, and the schedules computed from that clustering, at
      most one per ALU count. Every value derived by [rewind] while it
      keeps the minimised graph shares that cell, so advancing any of
      them from [Minimised] under the same [cluster_with] and ALU data
      path reuses the clustering instead of computing it again, and
      advancing from [Clustered] at an ALU count already scheduled
      reuses the schedule; a clustering miss clusters and replaces the
      cell's contents, schedules included. The cell is made, empty, with
      the minimised graph, so values from {!of_source}, {!of_func} and
      {!of_graph}, and a rewind that drops the minimised graph, start
      with none. *)

  val freeze : t -> unit
  (** Freezes the raw and minimised graphs ({!Cdfg.Graph.freeze}) so
      the value can be shared read-only across domains — what the serve
      daemon does before caching. Later rewinds still work: re-run phases
      copy the raw graph, never mutate it. The one thing a frozen value
      still writes is its clustering cell (see {!rewind}): it is an
      [Atomic.t], so rewinds of one frozen checkpoint may advance on
      several domains at once. They map to the same bytes as a
      sequential run, and when they all keep the ALU data path each
      domain clusters at most once and schedules at most once per ALU
      count (schedules are added by compare-and-set). *)
end

val audit :
  ?pool:Fpfa_exec.Pool.t ->
  config:config ->
  result ->
  Fpfa_diag.Diag.t list
  * (Fpfa_analysis.Addr.t * Fpfa_analysis.Bits.t) option
(** Every static diagnostic for a mapped result in one sorted list:
    the structure rules on the raw and minimised graphs (each checked
    once), mappability + statespace legality + lints on the minimised
    graph, every finding of the cluster and schedule rules
    ({!Mapping.Cluster.check_diags}, {!Mapping.Sched.check_diags}, whose
    first finding the flow's validate stages raise) and of the allocation
    rules ({!Fpfa_sim.Sim.check_diags}, whose first finding the simulator
    raises), the {!Fpfa_analysis.Depend}
    loop-carried dependence analysis re-run from the pre-unroll source
    (skipped for graph-only results with no source), and the
    {!Fpfa_analysis.Bits} bit-level lints (dead-masked stores, decided
    selects, datapath-width overflows) on the minimised graph.

    When the minimised graph's structure is sound, one
    {!Transform.Absdom} fixpoint serves the whole audit: the
    {!Fpfa_analysis.Bits} facts built on it and the address facts
    {!Fpfa_analysis.Addr.of_facts} derives from them are shared by the
    statespace replay, the lints and the bit lints, and returned as the second
    component for reporting. The diagnostic families are independent,
    so with [?pool] they run concurrently on the result graphs, frozen
    first ({!Cdfg.Graph.freeze}); output is identical to the sequential
    run. *)

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
    return value is compared with the evaluator's named output. An input
    that [main] uses as a scalar seeds the interpreter's scalar with cell
    0 of its [memory_init] region; every other input seeds an array.
    [false] when the interpreter faults. Meaningful only when [main] is
    the mapped function. *)

val pp_summary : Format.formatter -> result -> unit
