(* Loop-carried dependence analysis: distance verdicts (property-tested
   against brute-force address enumeration), recurrence RecMII on the
   corpus kernels, negative-step loops, and seeded corruptions that must
   trip each depend.* rule with exact blame. *)

module L = Cfront.Loop_info
module Dep = Fpfa_analysis.Depend
module D = Fpfa_diag.Diag

let mk_access ?(store = false) ?(sid = 0) base stride =
  {
    L.sid;
    region = "a";
    store;
    offset = L.Affine { base; stride; ctx = None };
    depth = 0;
    conditional = false;
    nested = false;
  }

(* Brute force ground truth: enumerate every iteration pair and record
   at which distances the two access streams touch the same address. *)
let brute_force trip (a : L.access) (b : L.access) =
  let cells (acc : L.access) =
    match acc.L.offset with
    | L.Affine { base; stride; ctx = None } ->
      Array.init trip (fun k -> base + (stride * k))
    | _ -> assert false
  in
  let ca = cells a and cb = cells b in
  let fwd = ref [] and bwd = ref [] and same = ref false in
  for d = 0 to trip - 1 do
    let hit_fwd = ref false and hit_bwd = ref false in
    for k = 0 to trip - 1 - d do
      if ca.(k) = cb.(k + d) then
        if d = 0 then same := true else hit_fwd := true;
      if d > 0 && cb.(k) = ca.(k + d) then hit_bwd := true
    done;
    if !hit_fwd then fwd := d :: !fwd;
    if !hit_bwd then bwd := d :: !bwd
  done;
  (List.rev !fwd, List.rev !bwd, !same)

(* One direction of the verdict against its ground-truth distance set.
   Equal zero strides with equal bases collide at every distance; the
   verdict is pinned to the binding [Exact 1], so only the minimum is
   checked there. *)
let direction_agrees ~both_static verdict truth =
  match (verdict, truth) with
  | None, [] -> true
  | None, _ :: _ | Some _, [] -> false
  | Some v, l ->
    let lo = List.hd l and hi = List.nth l (List.length l - 1) in
    (match v with
    | Dep.Exact d ->
      d = lo && (both_static || (d = hi && List.length l = 1))
    | Dep.Bounded (blo, bhi) -> blo = lo && bhi = hi)

let distance_verdicts_sound =
  QCheck.Test.make ~name:"distance verdicts agree with brute force"
    ~count:2000
    QCheck.(
      quad (int_range 1 12)
        (pair (int_range (-4) 4) (int_range (-3) 3))
        (pair (int_range (-4) 4) (int_range (-3) 3))
        bool)
    (fun (trip, (ba, sa), (bb, sb), store_b) ->
      let a = mk_access ~store:true ba sa in
      let b = mk_access ~store:store_b ~sid:1 bb sb in
      let rel = Dep.classify_pair ~trip a b in
      let fwd, bwd, same = brute_force trip a b in
      let both_static = sa = 0 && sb = 0 in
      (not rel.Dep.unknown)
      && Bool.equal rel.Dep.same_iter same
      && direction_agrees ~both_static rel.Dep.fwd fwd
      && direction_agrees ~both_static rel.Dep.bwd bwd
      && Bool.equal (Dep.is_independent rel)
           (fwd = [] && bwd = [] && not same))

(* ---------------- negative-step loops (satellite: downward iv) ----- *)

let downward_src =
  "void main() { for (i = 7; i >= 0; i = i - 1) { y[i] = x[i] + 1; } }"

let test_downward_loop_info () =
  let f = Cfront.Inline.entry (Cfront.Parser.parse_program downward_src) in
  let info = L.scan f in
  Alcotest.(check int) "no skips" 0 (List.length info.L.skipped);
  match info.L.loops with
  | [ loop ] ->
    Alcotest.(check string) "iv" "i" loop.L.iv;
    Alcotest.(check int) "init" 7 loop.L.init;
    Alcotest.(check int) "step" (-1) loop.L.step;
    Alcotest.(check int) "trip" 8 loop.L.trip;
    let form (a : L.access) =
      match a.L.offset with
      | L.Affine { base; stride; ctx = None } -> Some (base, stride)
      | _ -> None
    in
    List.iter
      (fun (a : L.access) ->
        Alcotest.(check (option (pair int int)))
          (Printf.sprintf "%s %s affine form is 7 - k" a.L.region
             (if a.L.store then "store" else "fetch"))
          (Some (7, -1))
          (form a))
      loop.L.accesses;
    (* concrete footprints: iteration 0 touches cell 7, iteration 7 cell 0 *)
    List.iter
      (fun (a : L.access) ->
        Alcotest.(check (option int)) "first cell" (Some 7) (L.cell_at loop a 0);
        Alcotest.(check (option int)) "last cell" (Some 0) (L.cell_at loop a 7))
      loop.L.accesses
  | loops ->
    Alcotest.failf "expected one loop, got %d" (List.length loops)

let shift_src =
  "void main() { for (k = 7; k > 0; k = k - 1) { state[k] = state[k - 1]; } }"

let test_downward_shift_distance () =
  let r = Dep.analyze_source shift_src in
  match r.Dep.loops with
  | [ lr ] ->
    Alcotest.(check int) "RecMII 1" 1 lr.Dep.rec_mii;
    Alcotest.(check int) "II lower bound 1" 1 lr.Dep.ii_lower_bound;
    Alcotest.(check (list string)) "no blockers" [] lr.Dep.blockers;
    let anti =
      List.filter
        (fun (d : Dep.dep) -> d.Dep.memory && d.Dep.kind = Dep.Anti)
        lr.Dep.deps
    in
    Alcotest.(check bool) "carried anti dependence found" true (anti <> []);
    List.iter
      (fun (d : Dep.dep) ->
        Alcotest.(check string) "on state" "state" d.Dep.subject;
        Alcotest.(check int) "distance 1" 1 (Dep.min_dist d.Dep.dist))
      anti;
    let v = Dep.validate r in
    Alcotest.(check int) "validated" 1 v.Dep.checked;
    Alcotest.(check int) "no refutations" 0 (List.length v.Dep.refuted)
  | loops ->
    Alcotest.failf "expected one loop, got %d" (List.length loops)

(* ---------------- recurrence kernels ------------------------------- *)

let kernel_loops name =
  let k = Fpfa_kernels.Kernels.find name in
  (Dep.analyze_source k.Fpfa_kernels.Kernels.source).Dep.loops

(* A distance-1 recurrence at [mii] names the cycle that carries it. *)
let check_cycle_named mii (lr : Dep.loop_report) =
  Alcotest.(check bool) "recurrence cycle named" true
    (List.exists
       (fun (r : Dep.recurrence) ->
         r.Dep.mii = mii && r.Dep.distance = 1
         && List.exists (fun s -> String.length s > 0) r.Dep.cycle)
       lr.Dep.recurrences)

let test_cumsum_recurrence () =
  match kernel_loops "cumsum-8" with
  | [ lr ] ->
    Alcotest.(check int) "RecMII 3" 3 lr.Dep.rec_mii;
    Alcotest.(check int) "II >= 3" 3 lr.Dep.ii_lower_bound;
    check_cycle_named 3 lr;
    Alcotest.(check bool) "blocked" true (lr.Dep.blockers <> [])
  | loops -> Alcotest.failf "expected one loop, got %d" (List.length loops)

let test_iir1_recurrence () =
  match kernel_loops "iir1-8" with
  | [ lr ] ->
    Alcotest.(check int) "RecMII 5" 5 lr.Dep.rec_mii;
    Alcotest.(check int) "II >= 5" 5 lr.Dep.ii_lower_bound;
    check_cycle_named 5 lr
  | loops -> Alcotest.failf "expected one loop, got %d" (List.length loops)

let test_mavg_acc_recurrence () =
  match kernel_loops "mavg-acc-4-8" with
  | [ warmup; slide ] ->
    Alcotest.(check int) "warm-up loop pipelines at II 1" 1
      warmup.Dep.ii_lower_bound;
    Alcotest.(check int) "sliding loop RecMII 2" 2 slide.Dep.rec_mii;
    check_cycle_named 2 slide;
    Alcotest.(check bool) "acc is the carried scalar" true
      (List.mem "acc" slide.Dep.loop.L.carries)
  | loops -> Alcotest.failf "expected two loops, got %d" (List.length loops)

(* Every corpus kernel gets a loop report: no loop skipped, each loop an
   II lower bound of at least 1, and the validator refutes no verdict
   anywhere. *)
let test_corpus_ii_bounds () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let r = Dep.analyze_source k.Fpfa_kernels.Kernels.source in
      Alcotest.(check int)
        (Printf.sprintf "%s: no loop skipped" k.Fpfa_kernels.Kernels.name)
        0
        (List.length r.Dep.skipped);
      List.iter
        (fun (lr : Dep.loop_report) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s loop %d has II >= 1"
               k.Fpfa_kernels.Kernels.name lr.Dep.loop.L.id)
            true
            (lr.Dep.ii_lower_bound >= 1))
        r.Dep.loops;
      let v = Dep.validate r in
      Alcotest.(check int)
        (Printf.sprintf "%s: no refutations" k.Fpfa_kernels.Kernels.name)
        0
        (List.length v.Dep.refuted))
    Fpfa_kernels.Kernels.all

(* ---------------- seeded rule trips -------------------------------- *)

let test_rule_loop_carried () =
  let k = Fpfa_kernels.Kernels.find "cumsum-8" in
  let r = Dep.analyze_source k.Fpfa_kernels.Kernels.source in
  let diags = Dep.diagnostics r in
  let hits =
    List.filter (fun d -> String.equal d.D.rule Dep.rule_loop_carried) diags
  in
  Alcotest.(check bool) "loop-carried info emitted" true (hits <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
      Alcotest.(check (option int)) "blames loop 0" (Some 0) d.D.node)
    hits

let test_rule_recurrence () =
  let k = Fpfa_kernels.Kernels.find "iir1-8" in
  let r = Dep.analyze_source k.Fpfa_kernels.Kernels.source in
  let hits =
    List.filter
      (fun d -> String.equal d.D.rule Dep.rule_recurrence)
      (Dep.diagnostics r)
  in
  match hits with
  | [ d ] ->
    Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning);
    Alcotest.(check (option int)) "blames loop 0" (Some 0) d.D.node;
    Alcotest.(check bool) "names the forced II" true
      (let msg = d.D.message in
       let has_sub sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has_sub "II >= 5")
  | l -> Alcotest.failf "expected one recurrence warning, got %d" (List.length l)

let test_rule_unknown_alias () =
  let src =
    "void main() { for (i = 0; i < 6; i = i + 1) { a[b[i]] = a[i] + 1; } }"
  in
  let r = Dep.analyze_source src in
  let lr = List.hd r.Dep.loops in
  Alcotest.(check bool) "undecided pair recorded" true
    (lr.Dep.unknown_pairs <> []);
  let hits =
    List.filter
      (fun d -> String.equal d.D.rule Dep.rule_unknown_alias)
      (Dep.diagnostics r)
  in
  Alcotest.(check bool) "warning emitted" true (hits <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning);
      Alcotest.(check (option int)) "blames loop 0" (Some 0) d.D.node)
    hits;
  (* opaque offsets also mean the validator must refuse, not guess *)
  let v = Dep.validate r in
  Alcotest.(check int) "loop reported unchecked" 1 (List.length v.Dep.unchecked)

(* Corrupt the recorded access offsets so the analysis wrongly claims
   independence; the differential validator must refute with exact blame. *)
let doctor_report which_store base =
  let r = Dep.analyze_source shift_src in
  let lr = List.hd r.Dep.loops in
  let doctor (a : L.access) =
    if a.L.store = which_store then
      { a with L.offset = L.Affine { base; stride = -1; ctx = None } }
    else a
  in
  let loop =
    { lr.Dep.loop with L.accesses = List.map doctor lr.Dep.loop.L.accesses }
  in
  { r with Dep.loops = [ { lr with Dep.loop = loop } ] }

let test_rule_refuted_fetch () =
  let r = doctor_report false (-20) in
  let v = Dep.validate r in
  Alcotest.(check bool) "refuted" true (v.Dep.refuted <> []);
  List.iter
    (fun (ref_ : Dep.refutation) ->
      Alcotest.(check int) "blames loop 0" 0 ref_.Dep.loop_id;
      Alcotest.(check string) "blames region state" "state" ref_.Dep.region;
      Alcotest.(check bool) "fetch/writer collision" true
        (ref_.Dep.fetch <> ref_.Dep.writer))
    v.Dep.refuted;
  let errs =
    List.filter
      (fun d -> String.equal d.D.rule Dep.rule_refuted)
      (Dep.diagnostics ~validation:v r)
  in
  Alcotest.(check bool) "error diagnostics emitted" true (errs <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "error severity" true (d.D.severity = D.Error))
    errs

let test_rule_refuted_store () =
  let r = doctor_report true 30 in
  let v = Dep.validate r in
  Alcotest.(check bool) "refuted" true (v.Dep.refuted <> []);
  Alcotest.(check bool) "an unpredicted store is blamed directly" true
    (List.exists
       (fun (ref_ : Dep.refutation) -> ref_.Dep.fetch = ref_.Dep.writer)
       v.Dep.refuted)

let suite =
  [
    QCheck_alcotest.to_alcotest distance_verdicts_sound;
    Alcotest.test_case "downward loop info" `Quick test_downward_loop_info;
    Alcotest.test_case "downward shift distance" `Quick
      test_downward_shift_distance;
    Alcotest.test_case "cumsum RecMII 3" `Quick test_cumsum_recurrence;
    Alcotest.test_case "iir1 RecMII 5" `Quick test_iir1_recurrence;
    Alcotest.test_case "mavg-acc RecMII 2" `Quick test_mavg_acc_recurrence;
    Alcotest.test_case "corpus II bounds + clean validation" `Quick
      test_corpus_ii_bounds;
    Alcotest.test_case "rule: loop-carried" `Quick test_rule_loop_carried;
    Alcotest.test_case "rule: recurrence" `Quick test_rule_recurrence;
    Alcotest.test_case "rule: unknown-alias" `Quick test_rule_unknown_alias;
    Alcotest.test_case "rule: refuted (fetch)" `Quick test_rule_refuted_fetch;
    Alcotest.test_case "rule: refuted (store)" `Quick test_rule_refuted_store;
  ]
