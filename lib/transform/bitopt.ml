module G = Cdfg.Graph
module Op = Cdfg.Op
module Obs = Fpfa_obs.Obs

let c_fold = Obs.counter "bitopt.fold"
let c_redirect = Obs.counter "bitopt.redirect"
let c_demote = Obs.counter "bitopt.demote"

type claim =
  | Fold of { node : G.id; value : int }
  | Redirect of { node : G.id; by : G.id; reason : string }
  | Demote of { node : G.id; op : Op.binop; arg : G.id; k : int }

let claim_node = function
  | Fold { node; _ } | Redirect { node; _ } | Demote { node; _ } -> node

let pp_claim fmt = function
  | Fold { node; value } -> Format.fprintf fmt "fold %d -> const %d" node value
  | Redirect { node; by; reason } ->
    Format.fprintf fmt "redirect %d -> %d (%s)" node by reason
  | Demote { node; op; arg; k } ->
    Format.fprintf fmt "demote %d: %s by 2^%d on %d" node
      (Op.binop_to_string op) k arg

let claim_to_string c = Format.asprintf "%a" pp_claim c

type lookup = G.id -> Absdom.t

(* 2^k for k in [1, 61], else None. *)
let log2_exact n =
  let rec loop v k =
    if v = n then Some k else if v > n || k > 61 then None else loop (v * 2) (k + 1)
  in
  if n <= 0 then None else loop 1 0

(* Non-negativity demands a genuine lower bound: an infinite bound is a
   saturation sentinel and certifies nothing (in particular a wrapped
   value can be negative with the interval half none the wiser). The
   bits half needs no guard — the sign-bit-known-zero fact is exact
   under the native wrap semantics. *)
let provably_nonneg (p : Absdom.t) =
  (not (Absdom.I.is_inf p.Absdom.range.Absdom.I.lo)
  && p.Absdom.range.Absdom.I.lo >= 0)
  || p.Absdom.bits.Absdom.zeros land min_int <> 0

(* Mask of bit positions [62-k .. 62]. *)
let high_mask k = lnot (Absdom.I.pos_inf asr k)

let derive_node (facts : lookup) g id =
  match G.kind g id with
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ -> []
  | (G.Binop _ | G.Unop _ | G.Mux) as kind -> (
    match Absdom.is_const (facts id) with
    | Some v -> [ Fold { node = id; value = v } ]
    | None -> (
      match kind with
      | G.Mux ->
        let cond = facts (G.input g id 0) in
        if Absdom.known_nonzero cond then
          [ Redirect { node = id; by = G.input g id 1; reason = "mux-true" } ]
        else if Absdom.is_const cond = Some 0 then
          [ Redirect { node = id; by = G.input g id 2; reason = "mux-false" } ]
        else []
      | G.Unop _ -> []
      | G.Binop op -> (
        let a = G.input g id 0 and b = G.input g id 1 in
        let fa = facts a and fb = facts b in
        match op with
        | Op.Band ->
          (* x & m = x when every bit not known-zero in x is known-one
             in m (the mask clears nothing x could have set). *)
          if fa.Absdom.bits.Absdom.zeros lor fb.Absdom.bits.Absdom.ones = -1
          then [ Redirect { node = id; by = a; reason = "redundant-mask" } ]
          else if
            fb.Absdom.bits.Absdom.zeros lor fa.Absdom.bits.Absdom.ones = -1
          then [ Redirect { node = id; by = b; reason = "redundant-mask" } ]
          else []
        | Op.Bor ->
          (* x | m = x when every bit m could set is already known-one
             in x. *)
          if fb.Absdom.bits.Absdom.zeros lor fa.Absdom.bits.Absdom.ones = -1
          then [ Redirect { node = id; by = a; reason = "redundant-or" } ]
          else if
            fa.Absdom.bits.Absdom.zeros lor fb.Absdom.bits.Absdom.ones = -1
          then [ Redirect { node = id; by = b; reason = "redundant-or" } ]
          else []
        | Op.Shr -> (
          (* (x << k) >> k = x when x provably fits a signed (63-k)-bit
             word: its top k+1 bits are all known-equal, or its interval
             sits inside [-2^(62-k), 2^(62-k) - 1]. *)
          match (Absdom.is_const fb, G.kind g a) with
          | Some k, G.Binop Op.Shl when k >= 1 && k <= 62 -> (
            let inner_amount = facts (G.input g a 1) in
            match Absdom.is_const inner_amount with
            | Some k' when k' = k ->
              let x = G.input g a 0 in
              let fx = facts x in
              let hm = high_mask k in
              let bits_fit =
                fx.Absdom.bits.Absdom.zeros land hm = hm
                || fx.Absdom.bits.Absdom.ones land hm = hm
              in
              let bound = 1 lsl (62 - k) in
              let range_fit =
                fx.Absdom.range.Absdom.I.lo >= -bound
                && fx.Absdom.range.Absdom.I.hi <= bound - 1
              in
              if bits_fit || range_fit then
                [ Redirect { node = id; by = x; reason = "sign-extend" } ]
              else []
            | _ -> [])
          | _ -> [])
        | Op.Mul -> (
          (* a * 2^k = a lsl k for every native int (both wrap mod 2^63);
             needs no facts beyond the constant operand, but demotes a
             multiplier-class op to a shift. *)
          let demote arg c =
            match Absdom.is_const c with
            | Some v -> (
              match log2_exact v with
              | Some k when k >= 1 ->
                [ Demote { node = id; op = Op.Mul; arg; k } ]
              | _ -> [])
            | None -> []
          in
          match demote a fb with [] -> demote b fa | cs -> cs)
        | Op.Div -> (
          (* a / 2^k = a asr k only for a >= 0: C division truncates
             toward zero, the shift rounds toward minus infinity. *)
          match Absdom.is_const fb with
          | Some v -> (
            match log2_exact v with
            | Some k when k >= 1 && provably_nonneg fa ->
              [ Demote { node = id; op = Op.Div; arg = a; k } ]
            | _ -> [])
          | None -> [])
        | Op.Mod -> (
          (* a mod 2^k = a land (2^k - 1) only for a >= 0: the C result
             takes the dividend's sign. *)
          match Absdom.is_const fb with
          | Some v -> (
            match log2_exact v with
            | Some k when k >= 1 && provably_nonneg fa ->
              [ Demote { node = id; op = Op.Mod; arg = a; k } ]
            | _ -> [])
          | None -> [])
        | Op.Add | Op.Sub | Op.Shl | Op.Bxor | Op.Lt | Op.Le | Op.Gt
        | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor ->
          [])
      | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
        []))

let derive facts g =
  List.concat_map (fun id -> derive_node facts g id) (G.node_ids g)

let check_claim facts g claim =
  let node = claim_node claim in
  if not (G.mem g node) then
    Error (Printf.sprintf "claim targets unknown node %d" node)
  else
    match derive_node facts g node with
    | derived when List.mem claim derived -> Ok ()
    | [] ->
      Error
        (Printf.sprintf "not re-derivable from recomputed facts: %s"
           (claim_to_string claim))
    | derived :: _ ->
      Error
        (Printf.sprintf
           "recomputed facts justify %s, not the claimed %s"
           (claim_to_string derived) (claim_to_string claim))

type report = { folds : int; redirects : int; demotes : int; rounds : int }

let empty_report = { folds = 0; redirects = 0; demotes = 0; rounds = 0 }

let merge_report a b =
  {
    folds = a.folds + b.folds;
    redirects = a.redirects + b.redirects;
    demotes = a.demotes + b.demotes;
    rounds = a.rounds + b.rounds;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "%d fold(s), %d redirect(s), %d multiplier demotion(s) in %d round(s)"
    r.folds r.redirects r.demotes r.rounds

let apply ?verify g claims =
  (match verify with Some f -> f g claims | None -> ());
  (* Forwarding table: a claim may name a target that an earlier claim in
     the same batch already replaced; chasing it keeps the batch
     order-insensitive and leaves no use on a superseded node. *)
  let forwarded : (G.id, G.id) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve id =
    match Hashtbl.find_opt forwarded id with
    | Some id' -> resolve id'
    | None -> id
  in
  let report = ref { empty_report with rounds = 1 } in
  List.iter
    (fun claim ->
      match claim with
      | Fold { node; value } ->
        let c = G.add g (G.Const value) [] in
        G.replace_uses g node ~by:c;
        Hashtbl.replace forwarded node c;
        Obs.incr c_fold;
        report := { !report with folds = !report.folds + 1 }
      | Redirect { node; by; reason = _ } ->
        let by = resolve by in
        G.replace_uses g node ~by;
        Hashtbl.replace forwarded node by;
        Obs.incr c_redirect;
        report := { !report with redirects = !report.redirects + 1 }
      | Demote { node; op; arg; k } ->
        let arg = resolve arg in
        let replacement =
          match op with
          | Op.Mul ->
            let amount = G.add g (G.Const k) [] in
            G.add g (G.Binop Op.Shl) [ arg; amount ]
          | Op.Div ->
            let amount = G.add g (G.Const k) [] in
            G.add g (G.Binop Op.Shr) [ arg; amount ]
          | Op.Mod ->
            let mask = G.add g (G.Const ((1 lsl k) - 1)) [] in
            G.add g (G.Binop Op.Band) [ arg; mask ]
          | _ -> invalid_arg "Bitopt.apply: demote of a non-multiplier op"
        in
        G.replace_uses g node ~by:replacement;
        Hashtbl.replace forwarded node replacement;
        Obs.incr c_demote;
        report := { !report with demotes = !report.demotes + 1 })
    claims;
  !report
