(** Hoisting common operations out of MUX branches.

    If-conversion computes both sides of a branch and selects; when the two
    sides share structure, the selection can move inward:

    - [mux (c, f(a, x), f(b, x))  ->  f (mux (c, a, b), x)] (one [f] fewer,
      for any binop/unop position);
    - [mux (c, a, a)] collapses (also done by {!Rewrites.algebraic});
    - [mux (c, x, mux (c, y, z)) -> mux (c, x, z)] and the symmetric form
      (same condition dominates).

    Fires only when the absorbed operations have exactly one data use
    (read from the live use/def index), so it never duplicates work. An
    extension rule in the spirit of the paper's "more transformations will
    be added"; part of {!Simplify.extended_rules}, not of the default
    rules. *)

val rule : Pass.rule
