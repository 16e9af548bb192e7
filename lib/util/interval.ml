(* Saturating integer intervals — the numeric core of the interval half
   of Transform.Absdom and of the address analysis' no-wrap certificate
   (Fpfa_analysis.Addr). *)

type t = { lo : int; hi : int }

let pp fmt { lo; hi } = Format.fprintf fmt "[%d, %d]" lo hi

(* Bounds saturate to the full OCaml int range: [min_int] and [max_int]
   act as minus/plus infinity, so the top interval contains every runtime
   value — including results of operations that wrap the 63-bit machine
   integer (e.g. huge shifts). All arithmetic on bounds detects overflow
   (via floats, exact enough at this magnitude) and saturates instead of
   wrapping, which keeps every client analysis sound. *)
let neg_inf = min_int
let pos_inf = max_int
let finite_limit = 1 lsl 59

let is_inf v = v = neg_inf || v = pos_inf

let sat v =
  if v >= finite_limit then pos_inf else if v <= -finite_limit then neg_inf else v

let sat_add a b =
  if a = neg_inf || b = neg_inf then neg_inf
  else if a = pos_inf || b = pos_inf then pos_inf
  else sat (a + b)

let sat_neg a =
  if a = neg_inf then pos_inf else if a = pos_inf then neg_inf else -a

let sat_sub a b = sat_add a (sat_neg b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let sign = (a > 0) = (b > 0) in
    if is_inf a || is_inf b then if sign then pos_inf else neg_inf
    else if
      Float.abs (float_of_int a *. float_of_int b) >= float_of_int finite_limit
    then if sign then pos_inf else neg_inf
    else sat (a * b)

let make lo hi =
  assert (lo <= hi);
  { lo; hi }

let const v = make (sat v) (sat v)
let hull a b = make (min a.lo b.lo) (max a.hi b.hi)
let top = make neg_inf pos_inf
let bool_interval = make 0 1

let full_width width =
  assert (width > 1);
  make (-(1 lsl (width - 1))) ((1 lsl (width - 1)) - 1)

let is_const a = if a.lo = a.hi && not (is_inf a.lo) then Some a.lo else None
let is_bounded a = not (is_inf a.lo || is_inf a.hi)
let mem v a = v >= a.lo && v <= a.hi
let disjoint a b = a.hi < b.lo || b.hi < a.lo

let add a b = make (sat_add a.lo b.lo) (sat_add a.hi b.hi)
let neg a = make (sat_neg a.hi) (sat_neg a.lo)
let sub a b = add a (neg b)

let scale k a =
  if k = 0 then const 0
  else if k > 0 then make (sat_mul k a.lo) (sat_mul k a.hi)
  else make (sat_mul k a.hi) (sat_mul k a.lo)

let shift k a = add a (const k)

(* pos_inf when any bound is infinite *)
let magnitude a =
  if is_inf a.lo || is_inf a.hi then pos_inf else max (abs a.lo) (abs a.hi)

(* Smallest k such that the interval fits in a signed (k+1)-bit word; used
   for the conservative bitwise bound. *)
let bits_for a =
  let m = magnitude a in
  if m = pos_inf then 62
  else
    let rec loop k = if k >= 62 || 1 lsl k > m then k else loop (k + 1) in
    loop 1
