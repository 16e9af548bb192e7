(** Saturating integer intervals.

    The numeric core of the interval half of {!Transform.Absdom} and of
    the no-wrap certificate of the address analysis
    ({!Fpfa_analysis.Addr}). Bounds saturate at [±(1 lsl 59)]: outside
    that band a bound collapses to {!neg_inf}/{!pos_inf}, which behave as
    infinities under every operation, so interval arithmetic itself can
    never wrap the machine integer and every derived analysis stays
    sound. *)

type t = { lo : int; hi : int }

val pp : Format.formatter -> t -> unit

val neg_inf : int
(** [min_int], treated as minus infinity. *)

val pos_inf : int
(** [max_int], treated as plus infinity. *)

val finite_limit : int
(** Magnitude at which a bound saturates to an infinity ([1 lsl 59]). *)

val is_inf : int -> bool

(** {2 Saturating bound arithmetic} *)

val sat : int -> int
val sat_add : int -> int -> int
val sat_neg : int -> int
val sat_sub : int -> int -> int
val sat_mul : int -> int -> int

(** {2 Construction} *)

val make : int -> int -> t
(** [make lo hi]; asserts [lo <= hi]. Bounds are taken as-is — apply
    {!sat} first if they may exceed {!finite_limit}. *)

val const : int -> t
val top : t
val bool_interval : t
(** [[0, 1]]. *)

val full_width : int -> t
(** The signed [width]-bit interval, e.g. [full_width 16 = [-32768, 32767]]. *)

(** {2 Queries} *)

val is_const : t -> int option
(** [Some v] when the interval is the singleton [v] (and finite). *)

val is_bounded : t -> bool
(** Both bounds finite. *)

val mem : int -> t -> bool
val disjoint : t -> t -> bool
(** No integer lies in both intervals. *)

val magnitude : t -> int
(** [max |lo| |hi|]; {!pos_inf} when any bound is infinite. *)

val bits_for : t -> int
(** Smallest [k] such that the interval fits a signed (k+1)-bit word,
    capped at 62. *)

(** {2 Interval arithmetic} *)

val hull : t -> t -> t
(** Smallest interval containing both (the lattice join). *)

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t

val scale : int -> t -> t
(** [scale k a] = the interval of [k * x] for [x] in [a]. *)

val shift : int -> t -> t
(** [shift k a] = the interval of [x + k] for [x] in [a]. *)
