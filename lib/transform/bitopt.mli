(** Certified bit-level optimisation.

    Rewrites justified by the {!Absdom} known-bits x interval facts, in
    a claim/replay style: {!derive} computes a pure list
    of {e claims} (no mutation), a caller-supplied verifier may replay
    each claim against independently recomputed facts, and {!apply}
    performs the batch. Every rewrite is {e value-preserving}: a claimed
    node is replaced by a node computing the same value on every
    execution consistent with the analysis' input ranges, so interleaving
    with the standard simplifier rules never invalidates facts computed
    earlier (facts are per-id and ids are never reused).

    The rewrites: folding nodes whose every bit is known, deleting
    redundant masks / or-masks / sign-extension shift pairs, demoting
    multiplier-class ops ([*], [/], [%]) by powers of two into shifts and
    masks (division and modulo only when the dividend is provably
    non-negative — C truncating division disagrees with arithmetic shift
    on negatives), and collapsing selects whose condition is decided. *)

type claim =
  | Fold of { node : Cdfg.Graph.id; value : int }
      (** Every bit of [node] is known: replace uses by [Const value]. *)
  | Redirect of { node : Cdfg.Graph.id; by : Cdfg.Graph.id; reason : string }
      (** [node] provably computes the same value as its operand [by]
          ([reason] names the rule: redundant-mask, redundant-or,
          sign-extend, mux-true, mux-false). *)
  | Demote of { node : Cdfg.Graph.id; op : Cdfg.Op.binop; arg : Cdfg.Graph.id; k : int }
      (** Multiplier-class [op] by the constant [2^k] rewritten on [arg]:
          [Mul -> Shl k], [Div -> Shr k], [Mod -> Band (2^k - 1)]. *)

val claim_node : claim -> Cdfg.Graph.id
val pp_claim : Format.formatter -> claim -> unit
val claim_to_string : claim -> string

type lookup = Cdfg.Graph.id -> Absdom.t
(** Per-node facts, {!Absdom.top} for unanalysed ids (which disables
    every rewrite — unknown ids are always safe). *)

val derive_node : lookup -> Cdfg.Graph.t -> Cdfg.Graph.id -> claim list
(** The claims (at most one) justified at one node. Deterministic in the
    graph and facts — the property the replay check relies on. *)

val derive : lookup -> Cdfg.Graph.t -> claim list
(** {!derive_node} over the graph in ascending id order. Pure. *)

val check_claim :
  lookup -> Cdfg.Graph.t -> claim -> (unit, string) result
(** Re-derives one claim from the given facts; [Error] explains the
    refusal. [check_claim l g c = Ok ()] iff [c] is exactly what
    {!derive_node} produces at [c]'s node. *)

type report = {
  folds : int;
  redirects : int;
  demotes : int;  (** multiplier-class ops demoted (subset of rewrites) *)
  rounds : int;
}

val empty_report : report
val merge_report : report -> report -> report
val pp_report : Format.formatter -> report -> unit

val apply :
  ?verify:(Cdfg.Graph.t -> claim list -> unit) ->
  Cdfg.Graph.t ->
  claim list ->
  report
(** Applies a claim batch. [verify] runs first, on the still-untouched
    graph — {!Fpfa_analysis.Verify}[.bits] recomputes the facts from
    scratch there and raises on any claim it cannot re-derive, which
    aborts the whole batch before any mutation. Replaced nodes are left
    to dead-code elimination. *)
