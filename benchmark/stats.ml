(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks (numpy's default), so
   a percentile moves smoothly as samples are added. [nan] on no samples. *)
let quantile q a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile 0.5 a
let sum a = Array.fold_left ( +. ) 0.0 a

(* (max - min) / median: the spread of a handful of segment values. *)
let spread a =
  if Array.length a = 0 then 0.0
  else
    let s = sorted a in
    let m = median s in
    if m = 0.0 then 0.0 else (s.(Array.length s - 1) -. s.(0)) /. Float.abs m
