module G = Cdfg.Graph
module Op = Cdfg.Op

(* A value number: the node's kind and its inputs in port order, a
   commutative binop's two inputs sorted, unused slots -1. Two keys are
   equal exactly when (kind, input list) pairs are: a kind fixes the
   arity. The fields are mutable so a lookup fills one reusable probe
   key instead of allocating a key; the table stores copies. *)
type key = {
  mutable kind : G.kind;
  mutable in0 : int;
  mutable in1 : int;
  mutable in2 : int;
}

module Key = struct
  type t = key

  let equal a b =
    a.in0 = b.in0 && a.in1 = b.in1 && a.in2 = b.in2 && a.kind = b.kind

  let hash k =
    (((((Hashtbl.hash k.kind * 31) + k.in0) * 31) + k.in1) * 31) + k.in2
end

module Table = Hashtbl.Make (Key)

let blank () = { kind = G.Mux; in0 = -1; in1 = -1; in2 = -1 }
let copy k = { k with kind = k.kind }

let set k kind in0 in1 in2 =
  k.kind <- kind;
  k.in0 <- in0;
  k.in1 <- in1;
  k.in2 <- in2;
  true

(* Fills [k] with [id]'s value number; false for stores, deletes and
   statespace endpoints, which are never merged. *)
let fill k g id =
  match G.kind g id with
  | G.Const _ as kind -> set k kind (-1) (-1) (-1)
  | G.Unop _ as kind -> set k kind (G.input g id 0) (-1) (-1)
  | G.Fe _ as kind -> set k kind (G.input g id 0) (G.input g id 1) (-1)
  | G.Mux as kind ->
    set k kind (G.input g id 0) (G.input g id 1) (G.input g id 2)
  | G.Binop op as kind ->
    let a = G.input g id 0 and b = G.input g id 1 in
    if Op.commutative op && b < a then set k kind b a (-1)
    else set k kind a b (-1)
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ -> false

(* The value-number table lives for the whole engine run. Entries go
   stale when a representative is removed or its inputs change; staleness
   is detected lazily at lookup time (the representative must still exist
   and still hash to the key) and the entry is then usurped by the node in
   hand.

   In a full run the table fills in as the topological seed visits every
   node. A seeded run (the cleanup after each batch of certified
   bit-level rewrites, [Flow.bitopt_stage]) visits only the dirty region,
   so [~prime] instead pre-populates the table with every live node
   (earliest in topological order wins, matching the representative a
   full run would elect) — without it, a node a bit-level rewrite just
   created could never merge with an unvisited old equal, and the
   cleanup would leave duplicates a full run merges. *)
let prepare ~prime g =
  let seen = Table.create 64 in
  let probe = blank () and rep_key = blank () in
  if prime then
    List.iter
      (fun id ->
        if G.mem g id && fill probe g id && not (Table.mem seen probe) then
          Table.replace seen (copy probe) id)
      (G.topo_order g);
  fun id ->
    fill probe g id
    &&
    match Table.find seen probe with
    | rep when rep = id -> false
    | rep when G.mem g rep && fill rep_key g rep && Key.equal rep_key probe ->
      (* [rep] and [id] have identical kind and inputs, so neither
         can be a descendant of the other: the merge is acyclic. *)
      G.replace_uses g id ~by:rep;
      true
    | _ | (exception Not_found) ->
      Table.replace seen (copy probe) id;
      false

let rule =
  {
    Pass.rname = "cse";
    settled = false;
    prepare = prepare ~prime:false;
    prepare_seeded = Some (prepare ~prime:true);
  }
