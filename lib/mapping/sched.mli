(** Phase 2 — scheduling clusters on the tile's physical ALUs (paper VI-B,
    Fig. 4).

    Clusters are placed level by level: at most [alu_count] ALU-using
    clusters share a level. Critical-path clusters (zero mobility) are
    placed first; off-critical clusters move down within their mobility
    range, and a new level is inserted whenever a level overflows. Each
    cluster enters and leaves the queue of clusters waiting for an ALU
    once, so scheduling takes O((clusters + edges) log clusters) time. *)

type t = {
  clustering : Cluster.t;
  level_of : int array;  (** cid -> level *)
  levels : int list array;  (** level -> cids, in placement order *)
  asap : int array;
  alap : int array;
}

exception Scheduling_error of string

type priority =
  | Mobility  (** least [alap - asap] first — the paper's critical-first *)
  | Alap_first  (** earliest deadline first *)
  | Cid_order  (** discovery order — the naive baseline *)

val run : ?alu_count:int -> ?priority:priority -> Cluster.t -> t
(** [alu_count] defaults to 5 (one FPFA tile); [priority] (default
    {!Mobility}) selects which ready clusters win a contended level —
    benched as an ablation of the paper's "critical path first" choice. *)

val level_count : t -> int

val critical_path_levels : t -> int
(** Number of levels an unbounded tile would need (max ASAP + 1): the lower
    bound the list scheduler is compared against. *)

val mobility : t -> int -> int
(** [alap - asap] of a cluster. *)

val uses_alu : Cluster.cluster -> bool
(** Delete-only clusters occupy memory ports but no ALU slot. *)

val validate : t -> alu_count:int -> unit
(** Dependences respected (level(src)+weight <= level(dst)), level capacity
    never exceeded. @raise Scheduling_error *)

val pp : Format.formatter -> t -> unit
(** Fig. 4-style level table. *)
