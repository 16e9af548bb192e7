(** Sorting a prefix of an int array in place. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a n] sorts [a.(0 .. n - 1)] ascending, in place and
    without allocating for [n <= 32]. *)
