(** Comparison points for the paper's mapping flow.

    - {!sequential}: a 1-ALU tile — everything the paper's Section VII
      "maximum parallelism" claim is measured against;
    - {!unit_ops}: 5 ALUs but no data-path fusion (one primitive operation
      per cluster) — isolates the value of phase-1 template clustering;
    - {!sarkar}: 5 ALUs with Sarkar edge-zeroing clustering — the
      alternative phase-1 heuristic;
    - {!no_locality}: the full flow with round-robin region placement —
      ablates the "locality of reference" claim;
    - {!with_forwarding}: the full flow plus the direct register-forwarding
      extension;
    - {!interleaved}: the full flow plus two-way memory interleaving of
      arrays. *)

type variant = {
  vname : string;
  config : Fpfa_core.Flow.config;
}

val paper : variant
(** The flow exactly as published (default config). *)

val sequential : variant
val unit_ops : variant
val sarkar : variant
val no_locality : variant
val with_forwarding : variant

val interleaved : variant
(** The full flow with arrays interleaved across the PP's two memories —
    doubles the read bandwidth of hot arrays (the fix for the streaming
    bottleneck E6 exposes). *)

val all : variant list
(** All variants, [paper] first. *)

val find : string -> variant option
(** The variant of {!all} called exactly [name]: how the command line
    and the serve daemon resolve a variant name. *)

val map_source : variant -> ?func:string -> string -> Fpfa_core.Flow.result

val map_graph : variant -> Cdfg.Graph.t -> Fpfa_core.Flow.result
