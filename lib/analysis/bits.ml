module G = Cdfg.Graph
module Op = Cdfg.Op
module A = Transform.Absdom
module I = Fpfa_util.Interval
module Diag = Fpfa_diag.Diag
module Json = Fpfa_util.Json

type t = {
  forward : A.facts;
  dem : int array;  (** indexed by node id; -1 = every bit demanded *)
  bound : int;
}

let sign_mask = min_int
let mask_low t = if t >= 63 then -1 else if t <= 0 then 0 else (1 lsl t) - 1

let smear_down x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  x lor (x lsr 32)

(* Backward demanded-bits sweep: one pass over the reverse topological
   order (consumers before producers), seeded all-demanded at the
   observables. Per-port transfers; anything not bit-decomposable
   (division, comparisons, memory offsets) demands every bit. Demanded
   masks only over-approximate — they feed reports, never rewrites. *)
let demanded_pass forward g =
  let bound = G.id_bound g in
  let dem = Array.make bound 0 in
  let add id m = dem.(id) <- dem.(id) lor m in
  List.iter (fun (_, id) -> add id (-1)) (G.outputs g);
  let order = List.rev (G.topo_order g) in
  List.iter
    (fun id ->
      let n = G.node g id in
      let d = dem.(id) in
      let input i = n.G.inputs.(i) in
      let fact i = A.value forward (input i) in
      match n.G.kind with
      | G.Const _ | G.Ss_in _ -> ()
      | G.Ss_out _ -> add (input 0) (-1)
      | G.Fe _ ->
        add (input 0) (-1);
        add (input 1) (-1)
      | G.St _ ->
        add (input 0) (-1);
        add (input 1) (-1);
        add (input 2) (-1)
      | G.Del _ ->
        add (input 0) (-1);
        add (input 1) (-1)
      | G.Mux ->
        if d <> 0 then begin
          add (input 0) (-1);
          add (input 1) d;
          add (input 2) d
        end
      | G.Unop op ->
        if d <> 0 then
          add (input 0)
            (match op with
            | Op.Bnot -> d
            | Op.Neg -> smear_down d
            | Op.Lnot -> -1)
      | G.Binop op ->
        if d <> 0 then begin
          match op with
          | Op.Band ->
            add (input 0) (d land lnot (fact 1).A.bits.A.zeros);
            add (input 1) (d land lnot (fact 0).A.bits.A.zeros)
          | Op.Bor ->
            add (input 0) (d land lnot (fact 1).A.bits.A.ones);
            add (input 1) (d land lnot (fact 0).A.bits.A.ones)
          | Op.Bxor ->
            add (input 0) d;
            add (input 1) d
          | Op.Add | Op.Sub | Op.Mul ->
            (* carries move upward only: result bit i reads input bits
               at or below i *)
            add (input 0) (smear_down d);
            add (input 1) (smear_down d)
          | Op.Shl -> (
            add (input 1) (-1);
            match A.is_const (fact 1) with
            | Some s when s >= 0 && s <= 62 -> add (input 0) (d lsr s)
            | Some _ -> () (* out-of-range: result is 0 whatever a is *)
            | None -> add (input 0) (-1))
          | Op.Shr -> (
            add (input 1) (-1);
            match A.is_const (fact 1) with
            | Some s when s >= 0 && s <= 62 ->
              let hi = if d land lnot (mask_low (63 - s)) <> 0 then sign_mask else 0 in
              add (input 0) ((d lsl s) lor hi)
            | Some _ -> ()
            | None -> add (input 0) (-1))
          | Op.Div | Op.Mod | Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Eq | Op.Ne
          | Op.Land | Op.Lor ->
            add (input 0) (-1);
            add (input 1) (-1)
        end)
    order;
  dem

let analyze ?(width = 16) ?input_ranges g =
  let forward = A.analyze ~width ?input_ranges g in
  let dem = demanded_pass forward g in
  { forward; dem; bound = G.id_bound g }

let forward t = t.forward
let value t id = A.value t.forward id
let lookup t = value t
let demanded t id = if id >= 0 && id < t.bound then t.dem.(id) else -1
let iterations t = A.iterations t.forward

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go (m land max_int) (if m < 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let dead_masked_stores t g =
  G.fold g ~init:[] ~f:(fun acc n ->
      match n.G.kind with
      | G.St region -> (
        let v = n.G.inputs.(2) in
        match G.kind g v with
        | G.Binop Op.Band -> (
          let check m_side x_side =
            match A.is_const (value t m_side) with
            | Some m ->
              let discarded = lnot m land (value t x_side).A.bits.A.ones in
              if discarded <> 0 then
                Some
                  (Diag.warning ~node:n.G.id "bits.dead-masked-store"
                     "store to %s discards %d bit(s) known to be set \
                      (mask clears them)"
                     region (popcount discarded))
              else None
            | None -> None
          in
          let a = G.input g v 0 and b = G.input g v 1 in
          match check b a with
          | Some d -> d :: acc
          | None -> (
            match check a b with Some d -> d :: acc | None -> acc))
        | _ -> acc)
      | _ -> acc)

let always_taken_selects t g =
  G.fold g ~init:[] ~f:(fun acc n ->
      match n.G.kind with
      | G.Mux ->
        let cond = value t n.G.inputs.(0) in
        if A.known_nonzero cond then
          Diag.warning ~node:n.G.id "bits.always-taken-select"
            "select condition is provably nonzero: the true branch is \
             always taken"
          :: acc
        else if A.is_const cond = Some 0 then
          Diag.warning ~node:n.G.id "bits.always-taken-select"
            "select condition is provably zero: the false branch is \
             always taken"
          :: acc
        else acc
      | _ -> acc)

let widening_overflows ~width t g =
  let limit = I.full_width width in
  (* all-equal high bits [width-1 .. 62] prove the value sign-extends a
     signed width-bit word *)
  let hm = lnot (mask_low (width - 1)) in
  A.fold_values t.forward ~init:[] ~f:(fun acc id (v : A.t) ->
      if not (G.mem g id) then acc
      else if v.A.range.I.lo >= limit.I.lo && v.A.range.I.hi <= limit.I.hi
      then acc
      else
        let b = v.A.bits in
        let bits_fit = b.A.zeros land hm = hm || b.A.ones land hm = hm in
        if bits_fit then acc
        else
          let definite = b.A.zeros land hm <> 0 && b.A.ones land hm <> 0 in
          Diag.warning ~node:id "bits.widening-overflow"
            "value %s the signed %d-bit datapath (interval %s, %d of 63 \
             bits known)"
            (if definite then "provably exceeds" else "may exceed")
            width
            (Format.asprintf "%a" I.pp v.A.range)
            (popcount (A.bits_known b))
          :: acc)

let diagnostics ?(width = 16) ?facts g =
  let t = match facts with Some t -> t | None -> analyze ~width g in
  Diag.sort
    (dead_masked_stores t g @ always_taken_selects t g
   @ widening_overflows ~width t g)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let facts_to_json t g =
  let null_inf v = if I.is_inf v then Json.Null else Json.Int v in
  let entries =
    A.fold_values t.forward ~init:[] ~f:(fun acc id (v : A.t) ->
        if not (G.mem g id) then acc
        else
          Json.Obj
            [
              ("node", Json.Int id);
              ("known", Json.Int (popcount (A.bits_known v.A.bits)));
              ("zeros", Json.Int v.A.bits.A.zeros);
              ("ones", Json.Int v.A.bits.A.ones);
              ("demanded", Json.Int (demanded t id));
              ("lo", null_inf v.A.range.I.lo);
              ("hi", null_inf v.A.range.I.hi);
              ( "const",
                match A.is_const v with
                | Some c -> Json.Int c
                | None -> Json.Null );
            ]
          :: acc)
  in
  Json.List (List.rev entries)
