module G = Cdfg.Graph
module I = Fpfa_util.Interval
module Obs = Fpfa_obs.Obs

(* Forward abstract interpretation of address operands.

   Every value node is assigned an abstract value with two components:

   - an interval (the interval half of the Transform.Absdom facts), and
   - an optional affine form [base + stride * sym], where [sym] is an
     opaque value node (e.g. a fetch result) and the equation is EXACT:
     it holds for the node's concrete value on every execution.

   Exactness is what makes the disjointness oracle sound, so a form is
   derived through [+], [-], [*], [<<] or unary [-] only when the
   saturating Fpfa_util.Interval transfer of the operands' intervals is
   finite: every finite Absdom bound is a genuine bound, and a finite
   saturating result stays inside +-2^59, so the concrete operation did
   not wrap the 63-bit machine integer and arithmetic over ℤ describes
   it. The node's own Absdom interval is no such certificate: known bits
   can bound a value that wrapped. A node we cannot (or must not) derive
   a form for becomes its own symbol: [0 + 1 * itself] is exact
   unconditionally. *)

type affine = { base : int; stride : int; sym : G.id }
type aval = { itv : I.t; affine : affine option }
type access = {
  node : G.id;
  region : string;
  access_kind : string;  (** ["FE"], ["ST"] or ["DEL"] *)
  offset : aval;
}

type t = {
  values : (G.id, aval) Hashtbl.t;
  access_tbl : (G.id, access) Hashtbl.t;
  access_list : access list;  (** sorted by node id *)
}

(* Affine coefficients beyond this magnitude saturate interval arithmetic
   anyway; refuse to build them rather than risk overflow in the oracle's
   difference computations. *)
let affine_limit = 1 lsl 30

let mk_affine base stride sym =
  if stride = 0 || abs base > affine_limit || abs stride > affine_limit then
    None
  else Some { base; stride; sym }

let self id = Some { base = 0; stride = 1; sym = id }

let const_of av = I.is_const av.itv

let shift_affine c = function
  | Some a -> mk_affine (a.base + c) a.stride a.sym
  | None -> None

let neg_affine = function
  | Some a -> mk_affine (-a.base) (-a.stride) a.sym
  | None -> None

let scale_affine k = function
  | Some a when k <> 0 && abs k <= affine_limit ->
    mk_affine (k * a.base) (k * a.stride) a.sym
  | _ -> None

let of_facts facts g =
  Obs.span ~cat:"analysis" "addr"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  let values : (G.id, aval) Hashtbl.t = Hashtbl.create 64 in
  let value id = Hashtbl.find values id in
  List.iter
    (fun id ->
      let n = G.node g id in
      if G.produces_value n.G.kind then begin
        let itv = (Transform.Absdom.value facts id).Transform.Absdom.range in
        let operand i = value n.G.inputs.(i) in
        let const_operand i = const_of (operand i) in
        (* the saturating transfer of the operands' intervals; finite
           certifies no machine wrap (see header comment) *)
        let transfer =
          match n.G.kind with
          | G.Binop Cdfg.Op.Add -> I.add (operand 0).itv (operand 1).itv
          | G.Binop Cdfg.Op.Sub -> I.sub (operand 0).itv (operand 1).itv
          | G.Binop Cdfg.Op.Mul -> (
            match (const_operand 0, const_operand 1) with
            | Some c, _ -> I.scale c (operand 1).itv
            | None, Some c -> I.scale c (operand 0).itv
            | None, None -> I.top)
          | G.Binop Cdfg.Op.Shl -> (
            match const_operand 1 with
            | Some k when k >= 0 && k <= 40 -> I.scale (1 lsl k) (operand 0).itv
            | _ -> I.top)
          | G.Unop Cdfg.Op.Neg -> I.neg (operand 0).itv
          | _ -> I.top
        in
        let derived =
          (* only trust ℤ-arithmetic derivations whose transfer is finite *)
          if not (I.is_bounded transfer) then None
          else
            match n.G.kind with
            | G.Const _ -> None
            | G.Binop Cdfg.Op.Add -> (
              let a = operand 0 and b = operand 1 in
              match (const_of a, const_of b) with
              | Some _, Some _ -> None
              | Some ca, None -> shift_affine ca b.affine
              | None, Some cb -> shift_affine cb a.affine
              | None, None -> (
                match (a.affine, b.affine) with
                | Some x, Some y when x.sym = y.sym ->
                  mk_affine (x.base + y.base) (x.stride + y.stride) x.sym
                | _ -> None))
            | G.Binop Cdfg.Op.Sub -> (
              let a = operand 0 and b = operand 1 in
              match (const_of a, const_of b) with
              | Some _, Some _ -> None
              | None, Some cb -> shift_affine (-cb) a.affine
              | Some ca, None -> shift_affine ca (neg_affine b.affine)
              | None, None -> (
                match (a.affine, b.affine) with
                | Some x, Some y when x.sym = y.sym ->
                  mk_affine (x.base - y.base) (x.stride - y.stride) x.sym
                | _ -> None))
            | G.Binop Cdfg.Op.Mul -> (
              let a = operand 0 and b = operand 1 in
              match (const_of a, const_of b) with
              | Some ca, None -> scale_affine ca b.affine
              | None, Some cb -> scale_affine cb a.affine
              | _ -> None)
            | G.Binop Cdfg.Op.Shl -> (
              let a = operand 0 and b = operand 1 in
              match const_of b with
              | Some k when k >= 0 && k <= 40 ->
                scale_affine (1 lsl k) a.affine
              | _ -> None)
            | G.Unop Cdfg.Op.Neg -> neg_affine (operand 0).affine
            | _ -> None
        in
        let affine =
          match derived with
          | Some _ as d -> d
          | None -> (
            (* constants are exact through the interval alone; everything
               else is its own symbol *)
            match (n.G.kind, const_of { itv; affine = None }) with
            | G.Const _, _ | _, Some _ -> None
            | _ -> self id)
        in
        Hashtbl.replace values id { itv; affine }
      end)
    (G.topo_order g);
  let access_tbl = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let record region access_kind =
        let off = (G.node g id).G.inputs.(1) in
        Hashtbl.replace access_tbl id
          { node = id; region; access_kind; offset = value off }
      in
      match G.kind g id with
      | G.Fe region -> record region "FE"
      | G.St region -> record region "ST"
      | G.Del region -> record region "DEL"
      | _ -> ())
    (G.node_ids g);
  let access_list =
    List.sort
      (fun a b -> compare a.node b.node)
      (Hashtbl.fold (fun _ a acc -> a :: acc) access_tbl [])
  in
  { values; access_tbl; access_list }

let analyze ?width ?input_ranges g =
  of_facts (Transform.Absdom.analyze ?width ?input_ranges g) g

let value t id = Hashtbl.find_opt t.values id
let access t id = Hashtbl.find_opt t.access_tbl id
let accesses t = t.access_list

(* {2 The disjointness decision procedure} *)

(* Each comparable offset is normalised to [base + stride * sym] with
   [stride = 0, sym = None] for constants. Two offsets are comparable when
   they share the symbol (or one is constant); then

     off1 - off2 = Δb + Δs·v,   v ∈ itv(sym)

   and the accesses can collide iff Δb + Δs·v = 0 has a solution in the
   symbol's interval: none when Δs = 0 and Δb ≠ 0, none when Δs ∤ Δb, and
   otherwise exactly v₀ = -Δb/Δs, which must land inside the interval. *)
let form av =
  match const_of av with
  | Some c -> Some (c, 0, None)
  | None -> (
    match av.affine with
    | Some { base; stride; sym } -> Some (base, stride, Some sym)
    | None -> None)

let relation t x y =
  match (access t x, access t y) with
  | Some ax, Some ay when not (String.equal ax.region ay.region) ->
    Transform.Disambig.Disjoint
  | Some ax, Some ay -> (
    let a = ax.offset and b = ay.offset in
    if I.disjoint a.itv b.itv then Transform.Disambig.Disjoint
    else
      match (form a, form b) with
      | Some (b1, s1, y1), Some (b2, s2, y2) -> (
        let comparable =
          if y1 = y2 then Some (s1 - s2, y1)
          else if s1 = 0 then Some (-s2, y2)
          else if s2 = 0 then Some (s1, y1)
          else None
        in
        match comparable with
        | None -> Transform.Disambig.May_alias
        | Some (ds, sym) ->
          let db = b1 - b2 in
          if ds = 0 then
            if db = 0 then Transform.Disambig.Must_alias
            else Transform.Disambig.Disjoint
          else if db mod ds <> 0 then Transform.Disambig.Disjoint
          else
            let v0 = -(db / ds) in
            let sym_itv =
              match sym with
              | Some s -> (
                match value t s with Some av -> av.itv | None -> I.top)
              | None -> I.top
            in
            if not (I.mem v0 sym_itv) then Transform.Disambig.Disjoint
            else if sym_itv.I.lo = sym_itv.I.hi then
              Transform.Disambig.Must_alias
            else Transform.Disambig.May_alias)
      | _ -> Transform.Disambig.May_alias)
  | _ -> Transform.Disambig.May_alias

let oracle t : Transform.Disambig.oracle = relation t

let must_disjoint t x y = relation t x y = Transform.Disambig.Disjoint

(* {2 Rendering} *)

let pp_aval fmt av =
  (match av.affine with
  | Some { base; stride; sym } ->
    Format.fprintf fmt "%d + %d*n%d in " base stride sym
  | None -> ());
  I.pp fmt av.itv

let json_bound b = if I.is_inf b then "null" else string_of_int b

let aval_to_json buf av =
  Buffer.add_string buf
    (Printf.sprintf "{\"lo\": %s, \"hi\": %s, \"affine\": "
       (json_bound av.itv.I.lo) (json_bound av.itv.I.hi));
  (match av.affine with
  | Some { base; stride; sym } ->
    Buffer.add_string buf
      (Printf.sprintf "{\"base\": %d, \"stride\": %d, \"sym\": %d}" base
         stride sym)
  | None -> Buffer.add_string buf "null");
  Buffer.add_char buf '}'

let facts_to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"node\": %d, \"kind\": \"%s\", \"region\": \"%s\", \"offset\": "
           a.node a.access_kind a.region);
      aval_to_json buf a.offset;
      Buffer.add_char buf '}')
    t.access_list;
  Buffer.add_char buf ']';
  Buffer.contents buf
