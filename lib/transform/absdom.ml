module G = Cdfg.Graph
module Op = Cdfg.Op
module I = Fpfa_util.Interval

(* Field-access convenience: [interval] is interchangeable with [I.t]. *)
type interval = I.t = { lo : int; hi : int }

(* ------------------------------------------------------------------ *)
(* Known bits                                                          *)
(* ------------------------------------------------------------------ *)

type bits = { zeros : int; ones : int }

let bits_top = { zeros = 0; ones = 0 }
let bits_const v = { zeros = lnot v; ones = v }
let bits_known b = b.zeros lor b.ones

let bits_is_const b =
  if b.zeros lor b.ones = -1 then Some b.ones else None

let bits_mem v b = v land b.zeros = 0 && lnot v land b.ones = 0

let bits_join a b =
  { zeros = a.zeros land b.zeros; ones = a.ones land b.ones }

let bits_not b = { zeros = b.ones; ones = b.zeros }

(* The sign bit of the 63-bit native word. *)
let sign_mask = min_int

(* Low [t] bits set; total for any [t]. *)
let mask_low t = if t >= 63 then -1 else if t <= 0 then 0 else (1 lsl t) - 1

(* All bits at or below the highest set bit of [x]. *)
let smear_down x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  x lor (x lsr 32)

let run_while mask =
  let rec go i = if i > 62 then 63 else if mask land (1 lsl i) = 0 then i else go (i + 1) in
  go 0

let low_known_run b = run_while (bits_known b)
let trailing_zero_run b = run_while b.zeros

(* Tri-state ripple-carry addition. A bit is 0 (known-0), 1 (known-1) or
   2 (unknown); the sum bit is known only when all three addend bits are,
   the carry-out is known-1 when at least two inputs are known-1 and
   known-0 when at most one input could be 1. Exactly mirrors native
   [( + )] (overflow past bit 62 is discarded on both sides). *)
let bits_add ?(carry = 0) a b =
  let zeros = ref 0 and ones = ref 0 in
  let c = ref carry in
  for i = 0 to 62 do
    let m = 1 lsl i in
    let tri one zero = if one then 1 else if zero then 0 else 2 in
    let ab = tri (a.ones land m <> 0) (a.zeros land m <> 0) in
    let bb = tri (b.ones land m <> 0) (b.zeros land m <> 0) in
    let k1 =
      (if ab = 1 then 1 else 0) + (if bb = 1 then 1 else 0)
      + if !c = 1 then 1 else 0
    in
    let u =
      (if ab = 2 then 1 else 0) + (if bb = 2 then 1 else 0)
      + if !c = 2 then 1 else 0
    in
    if u = 0 then
      if k1 land 1 = 1 then ones := !ones lor m else zeros := !zeros lor m;
    c := (if k1 >= 2 then 1 else if k1 + u <= 1 then 0 else 2)
  done;
  { zeros = !zeros; ones = !ones }

let pp_bits fmt b =
  (* Most significant first, 63 positions: 0, 1 or ?. *)
  let buf = Buffer.create 63 in
  for i = 62 downto 0 do
    let m = 1 lsl i in
    Buffer.add_char buf
      (if b.ones land m <> 0 then '1'
       else if b.zeros land m <> 0 then '0'
       else '?')
  done;
  (* Compress the leading run for readability. *)
  let s = Buffer.contents buf in
  let lead = s.[0] in
  let n = ref 0 in
  while !n < 62 && s.[!n] = lead do incr n done;
  if !n > 8 then Format.fprintf fmt "%c*%d%s" lead !n (String.sub s !n (63 - !n))
  else Format.pp_print_string fmt s

(* ------------------------------------------------------------------ *)
(* Interval transfers                                                  *)
(* ------------------------------------------------------------------ *)

let is_inf = I.is_inf
let sat_add = I.sat_add
let sat_neg = I.sat_neg
let sat_sub = I.sat_sub
let make = I.make
let hull = I.hull
let bool_interval = I.bool_interval
let magnitude = I.magnitude
let bits_for = I.bits_for

(* Weak-sentinel discipline. An infinite bound constrains nothing in its
   direction; every *finite* bound must be a genuine bound of the
   concrete native-word value. Two normalisations enforce it:

   - A bound saturated to the opposite sentinel (lo = pos_inf /
     hi = neg_inf) only certifies "somewhere past the band", which a
     value that wrapped the native word need not satisfy — it is demoted
     to its own side's sentinel, never used as knowledge.
   - A finite bound outside the +-(2^59 - 1) band is rounded to the band
     edge (toward weaker) or dropped; transfers may then assume finite
     bounds are in-band, so bound arithmetic itself can never wrap.

   Transfers must in turn drop a side's bound whenever the mathematical
   result on the *other* side can cross the native +-2^62 wrap
   threshold: the wrapped value lands arbitrarily far on the opposite
   side of the word. *)
let band_edge = I.finite_limit - 1

let weaken (r : I.t) =
  let lo =
    if r.lo = I.pos_inf then I.neg_inf
    else if r.lo <> I.neg_inf && r.lo > band_edge then band_edge
    else if r.lo <> I.neg_inf && r.lo < -band_edge then I.neg_inf
    else r.lo
  in
  let hi =
    if r.hi = I.neg_inf then I.pos_inf
    else if r.hi <> I.pos_inf && r.hi < -band_edge then -band_edge
    else if r.hi <> I.pos_inf && r.hi > band_edge then I.pos_inf
    else r.hi
  in
  if lo = r.lo && hi = r.hi then r else make lo hi

(* After [weaken]: an unbounded-above value may be as large as max_int,
   an unbounded-below one as small as min_int. *)
let unbounded_hi (r : I.t) = is_inf r.hi
let unbounded_lo (r : I.t) = is_inf r.lo

(* [a + b] can only cross the wrap threshold through an unbounded
   operand: genuine in-band bounds sum below 2^60, far from 2^62. A
   possible wrap on one side invalidates the *other* side's bound. *)
let add_interval (a : I.t) (b : I.t) =
  let hi_wraps =
    (unbounded_hi a && (unbounded_hi b || b.hi > 0))
    || (unbounded_hi b && a.hi > 0)
  in
  let lo_wraps =
    (unbounded_lo a && (unbounded_lo b || b.lo < 0))
    || (unbounded_lo b && a.lo < 0)
  in
  make
    (if hi_wraps then I.neg_inf else sat_add a.lo b.lo)
    (if lo_wraps then I.pos_inf else sat_add a.hi b.hi)

(* [-min_int] wraps to [min_int]: negating an unbounded-below value
   keeps no bound at all. *)
let neg_interval (a : I.t) =
  if unbounded_lo a then I.top else make (sat_neg a.hi) (sat_neg a.lo)

(* Conservative wrap test for products of in-band bounds: the float is
   within an ulp at these magnitudes, and comparing against 2^61 (half
   the wrap threshold) absorbs the rounding error. Below the test the
   native product is exact. *)
let product_may_wrap x y =
  Float.abs (float_of_int x *. float_of_int y) >= float_of_int (1 lsl 61)

let mul_interval (a : I.t) (b : I.t) =
  if
    unbounded_lo a || unbounded_hi a || unbounded_lo b || unbounded_hi b
    || product_may_wrap a.lo b.lo || product_may_wrap a.lo b.hi
    || product_may_wrap a.hi b.lo || product_may_wrap a.hi b.hi
  then I.top
  else
    let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    make
      (I.sat (List.fold_left min max_int products))
      (I.sat (List.fold_left max min_int products))

let binop_interval op a b =
  let a = weaken a and b = weaken b in
  weaken
    (match op with
    | Op.Add -> add_interval a b
    | Op.Sub -> add_interval a (neg_interval b)
    | Op.Mul -> mul_interval a b
    | Op.Div ->
      (* |a / b| <= |a| for any b (a/0 = 0 in our total semantics and
         the in-band dividend excludes the min_int / -1 wrap) *)
      let m = magnitude a in
      make (sat_neg m) m
    | Op.Mod ->
      (* |a mod b| < |b| and |a mod b| <= |a|; a mod 0 = 0 *)
      let m =
        let ma = magnitude a
        and mb =
          if magnitude b = I.pos_inf then I.pos_inf else max 0 (magnitude b - 1)
        in
        min ma mb
      in
      let lo = if a.lo < 0 then sat_neg m else 0 in
      let hi = if a.hi > 0 then m else 0 in
      make lo hi
    | Op.Shl -> (
      match I.is_const b with
      | Some s when s < 0 || s > 62 -> I.const 0 (* out-of-range yields 0 *)
      | Some s ->
        if
          s > 61 || unbounded_lo a || unbounded_hi a
          || product_may_wrap a.lo (1 lsl s)
          || product_may_wrap a.hi (1 lsl s)
        then I.top
        else make (I.sat (a.lo lsl s)) (I.sat (a.hi lsl s))
      | None -> I.top)
    | Op.Shr -> (
      match I.is_const b with
      | Some s
        when s >= 0 && s <= 62 && not (unbounded_lo a || unbounded_hi a) ->
        make (a.lo asr s) (a.hi asr s)
      | _ ->
        (* arithmetic shift never grows magnitude; out-of-range yields 0 *)
        make (min a.lo 0) (max a.hi 0))
    | Op.Band when b.lo = b.hi && b.lo >= 0 && not (is_inf b.hi) ->
      (* AND with a non-negative constant mask lands in [0, mask] whatever
         the other operand is (two's complement) — the fact that keeps
         masked dynamic addresses like a[i & 7] bounded. *)
      make 0 b.lo
    | Op.Band when a.lo = a.hi && a.lo >= 0 && not (is_inf a.hi) -> make 0 a.lo
    | Op.Band | Op.Bor | Op.Bxor ->
      let k = max (bits_for a) (bits_for b) in
      if k >= 62 then I.top
      else if a.lo >= 0 && b.lo >= 0 then
        (* non-negative operands: results stay below the next power of two *)
        make 0 ((1 lsl k) - 1)
      else make (-(1 lsl k)) ((1 lsl k) - 1)
    | Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor ->
      bool_interval)

let unop_interval op a =
  let a = weaken a in
  weaken
    (match op with
    | Op.Neg -> neg_interval a
    | Op.Bnot -> make (sat_sub (sat_neg a.hi) 1) (sat_sub (sat_neg a.lo) 1)
    | Op.Lnot -> bool_interval)

(* ------------------------------------------------------------------ *)
(* The product                                                         *)
(* ------------------------------------------------------------------ *)

type t = { bits : bits; range : I.t }

let top = { bits = bits_top; range = I.top }
let const v = { bits = bits_const v; range = weaken (I.const v) }

let bits_of_interval (r : I.t) =
  if r.lo = I.pos_inf || r.hi = I.neg_inf then
    (* both bounds saturated to the same side: the sentinel is not a true
       bound of that direction (the value is merely beyond the finite
       band), so the prefix rule would fabricate knowledge *)
    bits_top
  else if r.lo = r.hi then bits_const r.lo
  else
    (* Bits above the highest differing bit of lo and hi are shared by
       every value in between (two's-complement order agrees with the
       prefix order within one sign, and a sign difference makes the
       topmost bit differ, leaving nothing known). *)
    let known = lnot (smear_down (r.lo lxor r.hi)) in
    { zeros = known land lnot r.lo; ones = known land r.lo }

let of_interval r =
  let r = weaken r in
  { bits = bits_of_interval r; range = r }

let refine { bits; range } =
  let bits =
    let fr = bits_of_interval range in
    { zeros = bits.zeros lor fr.zeros; ones = bits.ones lor fr.ones }
  in
  (* Bounds push back into the interval only inside the finite band:
     Interval saturates magnitudes past [finite_limit] to infinities, so
     a larger bound would collapse to a sentinel that no longer contains
     the concrete value. *)
  let finite v = v > -I.finite_limit && v < I.finite_limit in
  let range =
    match bits_is_const bits with
    | Some v when finite v -> I.const v
    | Some _ -> range
    | None ->
      let unknown = lnot (bits_known bits) in
      let blo = bits.ones lor (unknown land sign_mask) in
      let bhi = bits.ones lor (unknown land max_int) in
      let lo = if finite blo then max range.lo blo else range.lo in
      let hi = if finite bhi then min range.hi bhi else range.hi in
      if lo <= hi then make lo hi else range
  in
  { bits; range }

let join a b =
  { bits = bits_join a.bits b.bits; range = hull a.range b.range }

(* An infinite bound is a saturation sentinel ("beyond the finite band"),
   not a literal bound: it constrains nothing in its direction. *)
let interval_mem v (r : I.t) =
  (I.is_inf r.lo || v >= r.lo) && (I.is_inf r.hi || v <= r.hi)

let mem v p = bits_mem v p.bits && interval_mem v p.range

let is_const p =
  match bits_is_const p.bits with
  | Some _ as c -> c
  | None -> I.is_const p.range

(* Only a genuine (finite) bound is knowledge; see [weaken]. *)
let fin v = not (I.is_inf v)

let known_nonzero p =
  p.bits.ones <> 0
  || (fin p.range.lo && p.range.lo > 0)
  || (fin p.range.hi && p.range.hi < 0)

let known_zero p = is_const p = Some 0

let pp fmt p = Format.fprintf fmt "%a %a" I.pp p.range pp_bits p.bits

(* ------------------------------------------------------------------ *)
(* Product transfers                                                   *)
(* ------------------------------------------------------------------ *)

let bool_unknown = { zeros = lnot 1; ones = 0 }

let bool_of_opt = function
  | Some true -> bits_const 1
  | Some false -> bits_const 0
  | None -> bool_unknown

(* Shift masks by a known amount. [asr] on the masks is exact for Shr:
   the native word is exactly the 63 tracked bits, so the mask's bit 62
   (the knowledge about the sign bit) replicates just as the value's
   sign bit does. *)
let bits_shl_const a s =
  { zeros = (a.zeros lsl s) lor mask_low s; ones = a.ones lsl s }

let bits_shr_const a s = { zeros = a.zeros asr s; ones = a.ones asr s }

let bits_mul a b =
  (* Trailing zeros add; and the low run of fully known bits of both
     operands determines the product's low bits exactly (mod 2^k). *)
  let t = min 63 (trailing_zero_run a + trailing_zero_run b) in
  let k = min (low_known_run a) (low_known_run b) in
  let mk = mask_low k in
  let p = (a.ones land mk) * (b.ones land mk) in
  {
    zeros = mask_low t lor (lnot p land mk);
    ones = p land mk;
  }

(* Ordered-comparison and disjointness folding use only genuine (finite)
   bounds: an infinite bound is a saturation sentinel and certifies
   nothing — in particular, a value that wrapped the native word may sit
   on either side of the band, so no sentinel is ever substituted by a
   band edge. *)
let lt_decided (a : I.t) (b : I.t) =
  if fin a.hi && fin b.lo && a.hi < b.lo then Some true
  else if fin a.lo && fin b.hi && a.lo >= b.hi then Some false
  else None

let le_decided (a : I.t) (b : I.t) =
  if fin a.hi && fin b.lo && a.hi <= b.lo then Some true
  else if fin a.lo && fin b.hi && a.lo > b.hi then Some false
  else None

let ranges_disjoint (a : I.t) (b : I.t) =
  (fin a.hi && fin b.lo && a.hi < b.lo)
  || (fin b.hi && fin a.lo && b.hi < a.lo)

(* A provably non-negative range needs a genuine lower bound. *)
let range_nonneg (r : I.t) = fin r.lo && r.lo >= 0

let binop_bits op (pa : t) (pb : t) =
  let a = pa.bits and b = pb.bits in
  match op with
  | Op.Add -> bits_add a b
  | Op.Sub -> bits_add ~carry:1 a (bits_not b)
  | Op.Mul -> bits_mul a b
  | Op.Div -> (
    match bits_is_const b with
    | Some 0 -> bits_const 0
    | Some d when d > 0 && d land (d - 1) = 0 && range_nonneg pa.range ->
      (* dividend provably non-negative: a / 2^k = a asr k *)
      let k = run_while (d - 1) in
      bits_shr_const a k
    | _ -> bits_top)
  | Op.Mod -> (
    match bits_is_const b with
    | Some 0 -> bits_const 0
    | Some d when d > 0 && d land (d - 1) = 0 && range_nonneg pa.range ->
      (* a mod 2^k = a land (2^k - 1) for a >= 0 *)
      let m = d - 1 in
      { zeros = (a.zeros land m) lor lnot m; ones = a.ones land m }
    | _ ->
      (* sign follows the dividend *)
      if range_nonneg pa.range || a.zeros land sign_mask <> 0 then
        { bits_top with zeros = sign_mask }
      else bits_top)
  | Op.Shl -> (
    match bits_is_const b with
    | Some s when s >= 0 && s <= 62 -> bits_shl_const a s
    | Some _ -> bits_const 0 (* out-of-range shift yields 0 *)
    | None ->
      (* every in-range shift preserves the trailing-zero run; the
         out-of-range result 0 has every bit zero *)
      { bits_top with zeros = mask_low (trailing_zero_run a) })
  | Op.Shr -> (
    match bits_is_const b with
    | Some s when s >= 0 && s <= 62 -> bits_shr_const a s
    | Some _ -> bits_const 0
    | None ->
      if a.zeros land sign_mask <> 0 then { bits_top with zeros = sign_mask }
      else bits_top)
  | Op.Band -> { zeros = a.zeros lor b.zeros; ones = a.ones land b.ones }
  | Op.Bor -> { zeros = a.zeros land b.zeros; ones = a.ones lor b.ones }
  | Op.Bxor ->
    let known = bits_known a land bits_known b in
    let x = a.ones lxor b.ones in
    { zeros = known land lnot x; ones = known land x }
  | Op.Lt -> bool_of_opt (lt_decided pa.range pb.range)
  | Op.Le -> bool_of_opt (le_decided pa.range pb.range)
  | Op.Gt -> bool_of_opt (lt_decided pb.range pa.range)
  | Op.Ge -> bool_of_opt (le_decided pb.range pa.range)
  | Op.Eq ->
    bool_of_opt
      (match (is_const pa, is_const pb) with
      | Some x, Some y -> Some (x = y)
      | _ ->
        if ranges_disjoint pa.range pb.range then Some false
        else if (a.ones land b.zeros) lor (a.zeros land b.ones) <> 0 then
          (* some bit provably differs *)
          Some false
        else None)
  | Op.Ne ->
    bool_of_opt
      (match (is_const pa, is_const pb) with
      | Some x, Some y -> Some (x <> y)
      | _ ->
        if ranges_disjoint pa.range pb.range then Some true
        else if (a.ones land b.zeros) lor (a.zeros land b.ones) <> 0 then
          Some true
        else None)
  | Op.Land ->
    bool_of_opt
      (if known_zero pa || known_zero pb then Some false
       else if known_nonzero pa && known_nonzero pb then Some true
       else None)
  | Op.Lor ->
    bool_of_opt
      (if known_nonzero pa || known_nonzero pb then Some true
       else if known_zero pa && known_zero pb then Some false
       else None)

let binop op pa pb =
  (* two singletons: the one concretisation is Eval's result, exactly —
     this also covers the wrap cases (min / -1, min * -1) the structural
     transfers cannot see *)
  match (is_const pa, is_const pb) with
  | Some x, Some y -> const (Op.eval_binop op x y)
  | _ ->
    refine
      {
        bits = binop_bits op pa pb;
        range = binop_interval op pa.range pb.range;
      }

let unop op pa =
  match is_const pa with
  | Some x -> const (Op.eval_unop op x)
  | None ->
    let bits =
      match op with
      | Op.Neg -> bits_add ~carry:1 (bits_not pa.bits) (bits_const 0)
      | Op.Bnot -> bits_not pa.bits
      | Op.Lnot ->
        bool_of_opt
          (if known_zero pa then Some true
           else if known_nonzero pa then Some false
           else None)
    in
    refine { bits; range = unop_interval op pa.range }

let mux cond if_true if_false =
  if known_nonzero cond then if_true
  else if known_zero cond then if_false
  else join if_true if_false

(* ------------------------------------------------------------------ *)
(* Forward analysis                                                    *)
(* ------------------------------------------------------------------ *)

(* Facts are dense per-id arrays sized to the graph's id bound when the
   analysis ran: [known] marks the ids it reached, [values] holds their
   abstract values. Ids past the bound (nodes added since) and ids the
   analysis did not reach (token producers) read as [top]. *)
type facts = {
  values : t array;
  known : Bytes.t;
  regions : (string, t) Hashtbl.t;
  iters : int;
}

let equal a b =
  a.bits.zeros = b.bits.zeros && a.bits.ones = b.bits.ones
  && a.range.lo = b.range.lo && a.range.hi = b.range.hi

let analyze ?(width = 16) ?(input_ranges = []) g =
  Fpfa_obs.Obs.span ~cat:"analysis" "absdom"
    ~args:[ ("nodes", Fpfa_obs.Obs.Int (G.node_count g)) ]
  @@ fun () ->
  let input_fact region =
    match List.assoc_opt region input_ranges with
    | Some r -> of_interval r
    | None -> of_interval (I.full_width width)
  in
  let bound = G.id_bound g in
  let values = Array.make bound top in
  let known = Bytes.make bound '\000' in
  let regions : (string, t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (region, _) -> Hashtbl.replace regions region (input_fact region))
    (G.regions g);
  let order = G.topo_order g in
  let changed = ref true in
  let iterations = ref 0 in
  let max_iterations = 8 in
  let value id port = values.(G.input g id port) in
  (* A first fact is taken as is; a different later one is joined in.
     Either counts as a change. *)
  let update id v =
    if Bytes.get known id = '\000' then begin
      values.(id) <- v;
      Bytes.set known id '\001';
      changed := true
    end
    else
      let old = values.(id) in
      if not (equal old v) then begin
        values.(id) <- join old v;
        changed := true
      end
  in
  let sweep id =
    match G.kind g id with
    | G.Const v -> update id (const v)
    | G.Binop op -> update id (binop op (value id 0) (value id 1))
    | G.Unop op -> update id (unop op (value id 0))
    | G.Mux -> update id (mux (value id 0) (value id 1) (value id 2))
    | G.Fe region -> update id (Hashtbl.find regions region)
    | G.St region ->
      let stored = value id 2 in
      let old = Hashtbl.find regions region in
      let joined = join old stored in
      if not (equal joined old) then begin
        Hashtbl.replace regions region joined;
        changed := true
      end
    | G.Ss_in _ | G.Ss_out _ | G.Del _ -> ()
  in
  while !changed && !iterations < max_iterations do
    changed := false;
    incr iterations;
    List.iter sweep order
  done;
  (* Region feedback still in motion: pin every region at top and
     recompute in one exact feed-forward sweep (constants and arithmetic
     over them stay precise, only memory-derived values degrade). *)
  if !changed then begin
    List.iter (fun (region, _) -> Hashtbl.replace regions region top) (G.regions g);
    let set id v =
      values.(id) <- v;
      Bytes.set known id '\001'
    in
    List.iter
      (fun id ->
        match G.kind g id with
        | G.Const v -> set id (const v)
        | G.Binop op -> set id (binop op (value id 0) (value id 1))
        | G.Unop op -> set id (unop op (value id 0))
        | G.Mux -> set id (mux (value id 0) (value id 1) (value id 2))
        | G.Fe _ -> set id top
        | G.St _ | G.Ss_in _ | G.Ss_out _ | G.Del _ -> ())
      order
  end;
  { values; known; regions; iters = !iterations }

let reached facts id =
  id >= 0 && id < Bytes.length facts.known
  && Bytes.get facts.known id <> '\000'

let value facts id = if reached facts id then facts.values.(id) else top

let region_fact facts region = Hashtbl.find_opt facts.regions region
let iterations facts = facts.iters

let fold_values facts ~init ~f =
  let acc = ref init in
  for id = 0 to Bytes.length facts.known - 1 do
    if reached facts id then acc := f !acc id facts.values.(id)
  done;
  !acc
