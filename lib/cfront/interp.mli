(** Reference interpreter for the C subset.

    This is the golden semantics the whole toolchain is checked against: the
    CDFG evaluator and the FPFA tile simulator must produce the same final
    state as this interpreter on the same inputs.

    Memory model: every scalar and every array is a named region. Regions
    start from the supplied initial contents; any location never supplied
    and never written reads as 0. Implicit symbols (used but not declared)
    are program inputs and are usually seeded through [initial_state]. *)

type state = {
  scalars : (string * int) list;  (** sorted by name *)
  arrays : (string * int array) list;  (** sorted by name *)
  return_value : int option;
}

exception Runtime_error of string
(** Array index out of bounds (negative, or past a declared bound) or fuel
    exhaustion. Division and shifts are total ([x/0 = x%0 = 0], out-of-range
    shift amounts yield 0) so that the speculative CDFG evaluation and the
    tile simulator agree with this interpreter on every input. *)

val run :
  ?fuel:int ->
  ?args:int list ->
  ?scalar_init:(string * int) list ->
  ?array_init:(string * int array) list ->
  Ast.func ->
  state
(** Executes one function. [fuel] (default 1_000_000) bounds the number of
    statements executed. [args] bind positional parameters. Implicit arrays
    not given in [array_init] are sized on demand (largest index touched).

    @raise Runtime_error on runtime faults.
    @raise Sema.Error when the function does not pass semantic analysis. *)

val run_main : ?fuel:int -> ?array_init:(string * int array) list ->
  ?scalar_init:(string * int) list -> Ast.program -> state
(** Runs the function called ["main"].
    @raise Not_found when the program has no [main]. *)

val run_main_on_regions :
  ?fuel:int -> (string * int array) list -> Ast.program -> state
(** Runs ["main"] on inputs given as the tile and the CDFG evaluator take
    them, one region of cells per name: an input that [main] uses as a
    scalar seeds the scalar with cell 0 (0 for an empty region); every
    other input seeds an array.
    @raise Not_found when the program has no [main]. *)

val equal_state : state -> state -> bool

val pp_state : Format.formatter -> state -> unit
