(* The known-bits x range product domain (Transform.Absdom), the
   demanded-bits sweep (Fpfa_analysis.Bits) and the certified bit-level
   optimisation pass (Transform.Bitopt / Verify.bits). *)

module G = Cdfg.Graph
module Op = Cdfg.Op
module A = Transform.Absdom
module Bitopt = Transform.Bitopt
module Bits = Fpfa_analysis.Bits
module Verify = Fpfa_analysis.Verify
module Kernels = Fpfa_kernels.Kernels
module Flow = Fpfa_core.Flow

let build source =
  let g = Cdfg.Builder.build_program source in
  ignore (Transform.Simplify.minimize g);
  g

(* {2 Transfer soundness at the word edges} *)

(* Signed-word boundaries, the saturation band of the interval half, shift
   amounts around the 63-bit width, and small values; every pair through
   every operator, the abstract result must contain the Eval result. *)
let edge_values =
  [
    min_int; min_int + 1; -max_int; -(1 lsl 59); -(1 lsl 59) + 1; -65536;
    -32768; -255; -64; -63; -62; -8; -2; -1; 0; 1; 2; 3; 7; 8; 31; 62; 63;
    64; 255; 4096; 32767; 32768; 65535; (1 lsl 59) - 1; 1 lsl 59;
    max_int - 1; max_int;
  ]

let test_binop_edges_sound () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let concrete = Op.eval_binop op a b in
              let abstract = A.binop op (A.const a) (A.const b) in
              if not (A.mem concrete abstract) then
                Alcotest.failf "%d %s %d = %d escapes %a" a
                  (Op.binop_to_string op) b concrete A.pp abstract)
            edge_values)
        edge_values)
    Op.all_binops

let test_unop_edges_sound () =
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          let concrete = Op.eval_unop op a in
          let abstract = A.unop op (A.const a) in
          if not (A.mem concrete abstract) then
            Alcotest.failf "%s %d = %d escapes %a" (Op.unop_to_string op) a
              concrete A.pp abstract)
        edge_values)
    Op.all_unops

(* The cases the paper semantics make non-obvious, pinned exactly. *)
let check_const msg expected p =
  Alcotest.(check (option int)) msg (Some expected) (A.is_const p)

let test_word_edge_pins () =
  (* shift by >= the 63-bit width yields 0, in both directions *)
  check_const "5 << 63" 0 (A.binop Op.Shl (A.const 5) (A.const 63));
  check_const "5 >> 63" 0 (A.binop Op.Shr (A.const 5) (A.const 63));
  check_const "5 << -1" 0 (A.binop Op.Shl (A.const 5) (A.const (-1)));
  (* in-range arithmetic shift replicates the sign bit *)
  check_const "-1 >> 62" (-1) (A.binop Op.Shr (A.const (-1)) (A.const 62));
  check_const "min >> 62" (-1)
    (A.binop Op.Shr (A.const min_int) (A.const 62));
  (* negation and multiplication wrap mod 2^63 *)
  check_const "-min = min" min_int (A.unop Op.Neg (A.const min_int));
  check_const "min * -1 wraps" min_int
    (A.binop Op.Mul (A.const min_int) (A.const (-1)));
  (* total division: /0 and %0 yield 0, min / -1 wraps *)
  check_const "x / 0" 0 (A.binop Op.Div (A.const 42) (A.const 0));
  check_const "x % 0" 0 (A.binop Op.Mod (A.const 42) (A.const 0));
  check_const "min / -1 wraps" min_int
    (A.binop Op.Div (A.const min_int) (A.const (-1)));
  (* C-truncating signed division and modulo *)
  check_const "-7 / 2" (-3) (A.binop Op.Div (A.const (-7)) (A.const 2));
  check_const "-7 % 2" (-1) (A.binop Op.Mod (A.const (-7)) (A.const 2))

let test_ripple_add_exact () =
  (* tri-state ripple carry: with every bit known it is ordinary
     addition, including the wrap at the top of the word *)
  List.iter
    (fun (a, b) ->
      check_const
        (Printf.sprintf "%d + %d" a b)
        (a + b)
        (A.binop Op.Add (A.const a) (A.const b)))
    [ (1, 1); (max_int, 1); (min_int, -1); (-1, 1); (12345, -54321) ]

let test_saturated_interval_claims_nothing () =
  (* a product beyond the +-2^59 saturation band keeps exact bits but a
     sentinel interval; the sentinel must not fabricate interval or bit
     knowledge (the bug class the finite-band guards exist for) *)
  let big = 1 lsl 30 in
  let p = A.binop Op.Mul (A.const big) (A.const big) in
  Alcotest.(check bool) "contains 2^60" true (A.mem (big * big) p);
  check_const "bits still exact" (big * big) p

(* {2 Wrap soundness: finite bounds vs the 63-bit word edge} *)

(* The certified-miscompile scenario the interval half used to admit:
   with width-16 inputs, ((x & 0x7fff) << 20) << 40 at x = 4 is
   concretely 2^62, which wraps to min_int — yet a wrap-blind transfer
   kept the genuine lower bound 0 and folded b >= 0 to constant 1. The
   abstract value must contain the wrapped (negative) result and the
   comparison must stay undecided. *)
let test_shl_wrap_reaches_sign_bit () =
  let masked = A.binop Op.Band A.top (A.const 0x7fff) in
  let b = A.binop Op.Shl (A.binop Op.Shl masked (A.const 20)) (A.const 40) in
  Alcotest.(check bool) "wrapped value contained" true (A.mem min_int b);
  let ge = A.binop Op.Ge b (A.const 0) in
  Alcotest.(check bool) "b >= 0 stays undecided" true
    (A.is_const ge = None && A.mem 0 ge && A.mem 1 ge)

let test_interval_mul_wrap () =
  (* 2^31 * 2^31 = 2^62 wraps to min_int; the interval-only transfer
     (Range's API) must widen rather than keep the fictitious [0, ...] *)
  let big = A.I.make 0 (1 lsl 31) in
  let r = A.binop_interval Op.Mul big big in
  Alcotest.(check bool) "wrapped product contained" true (A.I.mem min_int r)

let test_interval_add_wrap () =
  (* an unbounded-above operand can sit at max_int, so + 1 can wrap: the
     result must not keep any lower bound *)
  let p =
    A.binop Op.Add (A.of_interval (A.I.make 0 A.I.pos_inf)) (A.const 1)
  in
  Alcotest.(check bool) "max_int + 1 contained" true (A.mem min_int p)

let test_neg_wrap () =
  (* an unbounded-below operand can sit at min_int, whose negation is
     min_int again *)
  let p = A.unop Op.Neg (A.of_interval (A.I.make A.I.neg_inf 0)) in
  Alcotest.(check bool) "-min_int contained" true (A.mem min_int p)

(* {2 Forward analysis + demanded bits} *)

let find_node g pred =
  match
    G.fold g ~init:None ~f:(fun acc n -> if pred n then Some n.G.id else acc)
  with
  | Some id -> id
  | None -> Alcotest.fail "expected node not found"

let test_demanded_through_mask () =
  let g = build "void main() { out[0] = a[0] & 15; }" in
  let t = Bits.analyze g in
  let fe = find_node g (fun n -> n.G.kind = G.Fe "a") in
  Alcotest.(check int) "only the mask's bits are demanded" 15
    (Bits.demanded t fe)

let test_demanded_through_shift () =
  let g = build "void main() { out[0] = (a[0] << 4) & 255; }" in
  let t = Bits.analyze g in
  let fe = find_node g (fun n -> n.G.kind = G.Fe "a") in
  Alcotest.(check int) "mask shifted back over the value" 15
    (Bits.demanded t fe)

let test_masked_input_has_known_bits () =
  let g = build "void main() { out[0] = a[0] & 255; }" in
  let t = Bits.analyze g in
  let band = find_node g (fun n -> n.G.kind = G.Binop Op.Band) in
  let v = Bits.value t band in
  Alcotest.(check bool) "high bits known zero" true
    (A.bits_known v.A.bits land lnot 255 = lnot 255);
  Alcotest.(check bool) "range bounded" true
    (v.A.range.A.I.lo >= 0 && v.A.range.A.I.hi <= 255)

let test_dead_masked_store_diag () =
  (* bit 4 of (x & 15) | 16 is provably set, and the store masks it away *)
  let g = build "void main() { out[0] = ((a[0] & 15) | 16) & 15; }" in
  let diags = Bits.diagnostics g in
  Alcotest.(check bool) "dead-masked-store reported" true
    (List.exists
       (fun (d : Fpfa_diag.Diag.t) ->
         String.equal d.Fpfa_diag.Diag.rule "bits.dead-masked-store")
       diags)

(* {2 The certified pass} *)

let eval_equal g g' =
  Cdfg.Eval.equal_result (Cdfg.Eval.run g) (Cdfg.Eval.run g')

let claims_of g =
  Bitopt.derive (A.value (A.analyze g)) g

let test_redundant_mask_removed () =
  let g = build "void main() { x = a[0] & 255; out[0] = x & 1023; }" in
  let before = G.copy g in
  let claims = claims_of g in
  Alcotest.(check bool) "redirect derived" true
    (List.exists
       (function Bitopt.Redirect _ -> true | _ -> false)
       claims);
  let report = Bitopt.apply ~verify:(fun g cs -> Verify.bits g cs) g claims in
  ignore (Transform.Simplify.minimize g);
  Alcotest.(check bool) "behaviour preserved" true (eval_equal before g);
  Alcotest.(check bool) "a rewrite fired" true
    (report.Bitopt.redirects >= 1);
  Alcotest.(check bool) "outer mask gone" true
    (G.node_count g < G.node_count before)

let test_demotions_fire () =
  let g =
    build
      "void main() { p = a[0] & 4095; out[0] = p / 16; out[1] = p % 8; \
       out[2] = a[1] * 8; }"
  in
  let before = G.copy g in
  let claims = claims_of g in
  let demotes =
    List.filter (function Bitopt.Demote _ -> true | _ -> false) claims
  in
  Alcotest.(check int) "div, mod and mul all demoted" 3 (List.length demotes);
  ignore (Bitopt.apply ~verify:(fun g cs -> Verify.bits g cs) g claims);
  ignore (Transform.Simplify.minimize g);
  Alcotest.(check bool) "behaviour preserved" true (eval_equal before g);
  Alcotest.(check int) "no multiplier-class op left" 0
    (G.stats g).G.multiplies

let test_signed_divide_not_demoted () =
  (* a[0] may be negative: a / 16 truncates toward zero, a >> 4 rounds
     down — the pass must refuse the demotion without a nonneg proof *)
  let g = build "void main() { out[0] = a[0] / 16; out[1] = a[0] % 8; }" in
  let claims = claims_of g in
  Alcotest.(check int) "no unsound demotion" 0 (List.length claims)

let test_wrapping_dividend_not_demoted () =
  (* b's lower bound 0 is only true before the wrap: at a[0] = 4 the
     value is min_int, where asr/band disagree with Eval's
     truncate-toward-zero division and sign-follows-dividend modulo *)
  let g =
    build
      "void main() { b = ((a[0] & 32767) << 20) << 40; out[0] = b / 16; \
       out[1] = b % 16; }"
  in
  let claims = claims_of g in
  Alcotest.(check bool) "no demotion of a possibly-wrapped dividend" true
    (List.for_all
       (function Bitopt.Demote _ -> false | _ -> true)
       claims)

let test_flow_stage_certified () =
  (* the pass as the flow runs it: derive, independent replay, apply and
     cleanup, to a fixpoint *)
  let result =
    Flow.map_source
      "void main() { p = a[0] & 4095; out[0] = p / 16; out[1] = a[1] * 8; }"
  in
  let r = result.Flow.bitopt_report in
  Alcotest.(check bool) "stage fired" true
    (r.Bitopt.folds + r.Bitopt.redirects + r.Bitopt.demotes >= 1);
  let memory_init = [ ("a", [| 4000; -3 |]) ] in
  Alcotest.(check bool) "behaviour preserved" true
    (Cdfg.Eval.equal_result
       (Cdfg.Eval.run ~memory_init result.Flow.raw_graph)
       (Cdfg.Eval.run ~memory_init result.Flow.graph));
  Alcotest.(check int) "no multiplier-class op left" 0
    (G.stats result.Flow.graph).G.multiplies

let test_verify_refuses_bogus_claim () =
  let g = build "void main() { out[0] = a[0] + a[1]; }" in
  let add = find_node g (fun n -> n.G.kind = G.Binop Op.Add) in
  let bogus = Bitopt.Fold { node = add; value = 42 } in
  let count = G.node_count g in
  (match
     Bitopt.apply ~verify:(fun g cs -> Verify.bits g cs) g [ bogus ]
   with
  | _ -> Alcotest.fail "unprovable fold was applied"
  | exception Transform.Pass.Verification_failed { rule; _ } ->
    Alcotest.(check string) "blames the pass" "bitopt" rule);
  Alcotest.(check int) "graph untouched: replay runs before any edit" count
    (G.node_count g)

let test_verify_accepts_rederivable_claims () =
  let g = build "void main() { out[0] = (a[0] & 255) * 4; }" in
  let claims = claims_of g in
  Alcotest.(check bool) "something derived" true (claims <> []);
  Verify.bits g claims (* must not raise *)

(* {2 Whole-flow properties} *)

let region_exn result name =
  match List.assoc_opt name result.Cdfg.Eval.memory with
  | Some a -> a
  | None -> Alcotest.failf "region %s missing" name

(* Reference CRC-8, polynomial 0x07, matching the crc8 kernel source. *)
let crc8_reference msg =
  let crc = ref 0 in
  Array.iter
    (fun byte ->
      crc := !crc lxor (byte land 255);
      for _ = 1 to 8 do
        if !crc land 128 <> 0 then crc := ((!crc lsl 1) lxor 7) land 255
        else crc := (!crc lsl 1) land 255
      done)
    msg;
  !crc

let test_crc8_golden () =
  let k = Kernels.find "crc8-4" in
  let result = Flow.map_source k.Kernels.source in
  Alcotest.(check bool) "triple conformance" true
    (Flow.verify ~memory_init:k.Kernels.inputs result);
  let eval =
    Cdfg.Eval.run ~memory_init:k.Kernels.inputs result.Flow.graph
  in
  let msg = List.assoc "msg" k.Kernels.inputs in
  Alcotest.(check int) "golden CRC" (crc8_reference msg)
    (region_exn eval "out").(0);
  Alcotest.(check bool) "the pass rewrote something" true
    (result.Flow.bitopt_report.Bitopt.redirects >= 1)

let test_pack565_golden () =
  let k = Kernels.find "pack565-4" in
  let result = Flow.map_source k.Kernels.source in
  Alcotest.(check bool) "triple conformance" true
    (Flow.verify ~memory_init:k.Kernels.inputs result);
  let eval =
    Cdfg.Eval.run ~memory_init:k.Kernels.inputs result.Flow.graph
  in
  let rr = List.assoc "rr" k.Kernels.inputs
  and gg = List.assoc "gg" k.Kernels.inputs
  and bb = List.assoc "bb" k.Kernels.inputs in
  for i = 0 to 3 do
    let r = rr.(i) land 31 and g = gg.(i) land 63 and b = bb.(i) land 31 in
    let p = (r * 2048) + (g * 32) + b in
    Alcotest.(check int) "packed" p (region_exn eval "pix").(i);
    Alcotest.(check int) "r back" r (region_exn eval "ur").(i);
    Alcotest.(check int) "g back" g (region_exn eval "ug").(i);
    Alcotest.(check int) "b back" b (region_exn eval "ub").(i)
  done;
  Alcotest.(check bool) "multiplier demotions fired" true
    (result.Flow.bitopt_report.Bitopt.demotes >= 1);
  Alcotest.(check int) "no multiplier op mapped" 0
    result.Flow.metrics.Mapping.Metrics.mul_ops

(* The pass changes the mapping, never the meaning: over the corpus it
   rewrites at least three kernels, demotes multiplier-class ops in at
   least one and maps fewer ALU plus multiplier ops in total, while every
   kernel keeps its Eval results and its conformance triple. *)
let test_bitopt_off_same_behaviour () =
  let rewritten = ref 0 and demoted = ref 0 and ops_removed = ref 0 in
  List.iter
    (fun (k : Kernels.t) ->
      let name = k.Kernels.name in
      let on_ = Flow.map_source k.Kernels.source in
      let off =
        Flow.map_source
          ~config:{ Flow.default_config with Flow.bitopt = false }
          k.Kernels.source
      in
      Alcotest.(check bool)
        (name ^ ": identical eval results")
        true
        (Cdfg.Eval.equal_result
           (Cdfg.Eval.run ~memory_init:k.Kernels.inputs on_.Flow.graph)
           (Cdfg.Eval.run ~memory_init:k.Kernels.inputs off.Flow.graph));
      Alcotest.(check bool)
        (name ^ ": off-report is empty")
        true
        (off.Flow.bitopt_report = Bitopt.empty_report);
      Alcotest.(check bool)
        (name ^ ": triple conformance with the pass on")
        true
        (Flow.verify ~memory_init:k.Kernels.inputs on_);
      let rep = on_.Flow.bitopt_report in
      if rep.Bitopt.folds + rep.Bitopt.redirects + rep.Bitopt.demotes > 0 then
        incr rewritten;
      if rep.Bitopt.demotes > 0 then incr demoted;
      let mapped (r : Flow.result) =
        r.Flow.metrics.Mapping.Metrics.alu_ops
        + r.Flow.metrics.Mapping.Metrics.mul_ops
      in
      ops_removed := !ops_removed + mapped off - mapped on_)
    Kernels.all;
  Alcotest.(check bool) "at least 3 kernels rewritten" true (!rewritten >= 3);
  Alcotest.(check bool) "at least 1 kernel with demotions" true (!demoted >= 1);
  Alcotest.(check bool) "mapped ops fall net" true (!ops_removed > 0)

(* {2 Value ranges and the datapath width}

   The [range] group: interval facts and the [bits.widening-overflow]
   lint, the datapath-width check, on small programs. Region inputs
   default to the signed 16-bit range. *)

let widening ?width ?input_ranges g =
  let facts = Bits.analyze ?width ?input_ranges g in
  List.filter_map
    (fun (d : Fpfa_diag.Diag.t) ->
      if String.equal d.Fpfa_diag.Diag.rule "bits.widening-overflow" then
        d.Fpfa_diag.Diag.node
      else None)
    (Bits.diagnostics ?width ~facts g)

let fits ?width ?input_ranges source =
  widening ?width ?input_ranges (build source) = []

let itv = Fpfa_util.Interval.make

let bounds (p : A.t) = (p.A.range.A.I.lo, p.A.range.A.I.hi)

(* The interval of the value stored to [region]. *)
let stored ?input_ranges source region =
  let g = build source in
  let st = find_node g (fun n -> n.G.kind = G.St region) in
  bounds (A.value (A.analyze ?input_ranges g) (G.input g st 2))

let test_constants_exact () =
  let g = build "void main() { x = 12345; }" in
  let c = find_node g (fun n -> n.G.kind = G.Const 12345) in
  Alcotest.(check (pair int int)) "exact" (12345, 12345)
    (bounds (A.value (A.analyze g) c))

let test_default_inputs_are_16bit () =
  Alcotest.(check bool) "two full-width inputs overflow" false
    (fits "void main() { x = a[0] + a[1]; }")

let test_narrow_inputs_fit () =
  Alcotest.(check bool) "no overflow" true
    (fits ~input_ranges:[ ("a", itv (-100) 100) ]
       "void main() { x = a[0] + a[1]; }")

let test_multiply_squares_range () =
  let square r =
    fits ~input_ranges:[ ("a", r) ] "void main() { x = a[0] * a[1]; }"
  in
  Alcotest.(check bool) "300*300 = 90000 flagged" false
    (square (itv (-300) 300));
  Alcotest.(check bool) "100*100 fits" true (square (itv (-100) 100))

let test_comparisons_are_boolean () =
  Alcotest.(check bool) "fits trivially" true
    (fits "void main() { x = a[0] < a[1]; }")

let test_shift_scaling () =
  let shifted k =
    fits ~input_ranges:[ ("a", itv 0 255) ]
      (Printf.sprintf "void main() { x = a[0] << %d; }" k)
  in
  Alcotest.(check bool) "<<7 fits (255*128 = 32640)" true (shifted 7);
  Alcotest.(check bool) "<<8 overflows (255*256 = 65280)" false (shifted 8)

let test_division_bounded_by_numerator () =
  (* -32768 / -1 = 32768 genuinely overflows a full-width datapath *)
  let source = "void main() { x = a[0] / a[1]; }" in
  Alcotest.(check bool) "asymmetric minimum flagged" false (fits source);
  Alcotest.(check bool) "symmetric inputs fit" true
    (fits ~input_ranges:[ ("a", itv (-32767) 32767) ] source)

let test_mod_bounded_by_divisor () =
  Alcotest.(check bool) "|x| < 7 whatever a is" true
    (fits ~input_ranges:[ ("b", itv 0 7) ] "void main() { x = a[0] % b[0]; }")

let test_mux_hull () =
  let source = "void main() { x = c ? a[0] : 100; }" in
  let input_ranges = [ ("a", itv 0 5) ] in
  Alcotest.(check bool) "fits" true (fits ~input_ranges source);
  Alcotest.(check (pair int int)) "hull of both branches" (0, 100)
    (stored ~input_ranges source "x")

let test_store_feeds_fetch () =
  (* a wide product stored to t reaches a later fetch of t through the
     region's contents: the product and the fetch are both flagged *)
  let g = G.create "st" in
  G.declare_region g "a" { G.size = Some 1; implicit = true };
  G.declare_region g "t" { G.size = Some 1; implicit = false };
  let ta = G.add g (G.Ss_in "a") [] and tt = G.add g (G.Ss_in "t") [] in
  let c0 = G.add g (G.Const 0) [] and c4 = G.add g (G.Const 4) [] in
  let x = G.add g (G.Fe "a") [ ta; c0 ] in
  let product = G.add g (G.Binop Op.Mul) [ x; c4 ] in
  let st = G.add g (G.St "t") [ tt; c0; product ] in
  let fe = G.add g (G.Fe "t") [ st; c0 ] in
  Alcotest.(check (list int)) "stored overflow flagged" [ product; fe ]
    (List.sort compare (widening ~input_ranges:[ ("a", itv 0 30000) ] g))

let test_accumulator_grows () =
  (* an 8-tap accumulation of 16-bit products overflows the datapath —
     the classic fixed-point pitfall the lint must expose *)
  let source = (Kernels.fir ~taps:8).Kernels.source in
  Alcotest.(check bool) "flagged at full-scale inputs" false (fits source);
  (* with enough headroom (8 products of 60*60 = 28800 < 32767) it fits *)
  let narrow = itv (-60) 60 in
  Alcotest.(check bool) "narrow inputs fit" true
    (fits ~input_ranges:[ ("a", narrow); ("c", narrow) ] source)

let test_descending_intervals () =
  (* downward-loop address arithmetic: 7 - i and 0 - i keep exact
     descending intervals through Sub/Neg *)
  let source = "void main() { x = 7 - a[0]; y = 0 - a[0]; }" in
  let input_ranges = [ ("a", itv 0 7) ] in
  Alcotest.(check (pair int int)) "7 - i over [0, 7]" (0, 7)
    (stored ~input_ranges source "x");
  Alcotest.(check (pair int int)) "0 - i over [-7, 0]" (-7, 0)
    (stored ~input_ranges source "y")

let test_width_parameter () =
  let g = build "void main() { x = a[0] * a[1]; }" in
  let input_ranges = [ ("a", itv (-300) 300) ] in
  Alcotest.(check bool) "fails at 16" true (widening ~input_ranges g <> []);
  Alcotest.(check (list int)) "fits at 32" []
    (widening ~width:32 ~input_ranges g)

(* {2 Properties} *)

let value_kinds_of g =
  List.filter
    (fun id ->
      match G.kind g id with
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Fe _ -> true
      | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ -> false)
    (G.node_ids g)

let input_ranges_of_gen () =
  List.map
    (fun (region, contents) ->
      ( region,
        Array.fold_left
          (fun acc v -> Fpfa_util.Interval.hull acc (Fpfa_util.Interval.const v))
          (Fpfa_util.Interval.const contents.(0))
          contents ))
    Gen.memory_init

(* Soundness: on random programs, every analysed fact contains the value
   Eval computes on in-range inputs. *)
let facts_are_sound =
  QCheck.Test.make ~name:"bit facts contain concrete eval values" ~count:100
    Gen.program (fun program ->
      let unrolled = Cfront.Unroll.unroll_program program in
      let g = Cdfg.Builder.build_func (List.hd unrolled) in
      ignore (Transform.Simplify.minimize g);
      let facts = A.analyze ~input_ranges:(input_ranges_of_gen ()) g in
      List.for_all
        (fun id ->
          let concrete =
            Cdfg.Eval.value_of ~memory_init:Gen.memory_init g id
          in
          let ok = A.mem concrete (A.value facts id) in
          if not ok then
            QCheck.Test.fail_reportf "node %d: %d escapes %a" id concrete
              A.pp (A.value facts id);
          ok)
        (value_kinds_of g))

(* The pass is behaviour-preserving end to end: apply + re-simplify on a
   random program, then compare Eval results (which cover every region
   and named output). *)
let bitopt_preserves_eval =
  QCheck.Test.make ~name:"bitopt output is eval-identical" ~count:100
    Gen.program (fun program ->
      let unrolled = Cfront.Unroll.unroll_program program in
      let g = Cdfg.Builder.build_func (List.hd unrolled) in
      ignore (Transform.Simplify.minimize g);
      let before = G.copy g in
      let facts = A.analyze ~input_ranges:(input_ranges_of_gen ()) g in
      let claims = Bitopt.derive (A.value facts) g in
      (match claims with
      | [] -> ()
      | claims ->
        ignore
          (Bitopt.apply
             ~verify:(fun g cs ->
               Verify.bits ~input_ranges:(input_ranges_of_gen ()) g cs)
             g claims);
        ignore (Transform.Simplify.minimize g));
      Cdfg.Eval.equal_result
        (Cdfg.Eval.run ~memory_init:Gen.memory_init before)
        (Cdfg.Eval.run ~memory_init:Gen.memory_init g))

let suite =
  [
    Alcotest.test_case "binop edges sound" `Quick test_binop_edges_sound;
    Alcotest.test_case "unop edges sound" `Quick test_unop_edges_sound;
    Alcotest.test_case "word-edge pins" `Quick test_word_edge_pins;
    Alcotest.test_case "ripple add exact" `Quick test_ripple_add_exact;
    Alcotest.test_case "saturation claims nothing" `Quick
      test_saturated_interval_claims_nothing;
    Alcotest.test_case "shl wrap reaches sign bit" `Quick
      test_shl_wrap_reaches_sign_bit;
    Alcotest.test_case "interval mul wrap" `Quick test_interval_mul_wrap;
    Alcotest.test_case "interval add wrap" `Quick test_interval_add_wrap;
    Alcotest.test_case "neg wrap" `Quick test_neg_wrap;
    Alcotest.test_case "demanded through mask" `Quick
      test_demanded_through_mask;
    Alcotest.test_case "demanded through shift" `Quick
      test_demanded_through_shift;
    Alcotest.test_case "masked input known bits" `Quick
      test_masked_input_has_known_bits;
    Alcotest.test_case "dead-masked-store diag" `Quick
      test_dead_masked_store_diag;
    Alcotest.test_case "redundant mask removed" `Quick
      test_redundant_mask_removed;
    Alcotest.test_case "demotions fire" `Quick test_demotions_fire;
    Alcotest.test_case "signed divide kept" `Quick
      test_signed_divide_not_demoted;
    Alcotest.test_case "wrapping dividend kept" `Quick
      test_wrapping_dividend_not_demoted;
    Alcotest.test_case "flow stage certified" `Quick
      test_flow_stage_certified;
    Alcotest.test_case "verify refuses bogus claim" `Quick
      test_verify_refuses_bogus_claim;
    Alcotest.test_case "verify accepts derivable claims" `Quick
      test_verify_accepts_rederivable_claims;
    Alcotest.test_case "crc8 golden" `Quick test_crc8_golden;
    Alcotest.test_case "pack565 golden" `Quick test_pack565_golden;
    Alcotest.test_case "bitopt off same behaviour" `Quick
      test_bitopt_off_same_behaviour;
    QCheck_alcotest.to_alcotest facts_are_sound;
    QCheck_alcotest.to_alcotest bitopt_preserves_eval;
  ]

let range_suite =
  [
    Alcotest.test_case "constants exact" `Quick test_constants_exact;
    Alcotest.test_case "16-bit defaults" `Quick test_default_inputs_are_16bit;
    Alcotest.test_case "narrow inputs" `Quick test_narrow_inputs_fit;
    Alcotest.test_case "multiply" `Quick test_multiply_squares_range;
    Alcotest.test_case "comparisons" `Quick test_comparisons_are_boolean;
    Alcotest.test_case "shifts" `Quick test_shift_scaling;
    Alcotest.test_case "division" `Quick test_division_bounded_by_numerator;
    Alcotest.test_case "modulo" `Quick test_mod_bounded_by_divisor;
    Alcotest.test_case "mux hull" `Quick test_mux_hull;
    Alcotest.test_case "store to fetch" `Quick test_store_feeds_fetch;
    Alcotest.test_case "FIR accumulator" `Quick test_accumulator_grows;
    Alcotest.test_case "descending intervals" `Quick test_descending_intervals;
    Alcotest.test_case "width parameter" `Quick test_width_parameter;
  ]
