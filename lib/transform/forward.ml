module G = Cdfg.Graph
module Fold = Cdfg.Fold

(* One fetch's worth of forwarding, decided by {!Cdfg.Fold} as the
   builder decides it. A walk that stops at a store to a provably equal
   offset forwards the stored value; any other stop re-anchors the
   fetch. *)
let forward_fetch g id =
  match G.kind g id with
  | G.Fe _ ->
    let token = G.input g id 0 and offset = G.input g id 1 in
    let stop = Fold.anchor g ~offset token in
    let stored = Fold.stored_value g ~offset stop in
    if stored >= 0 then begin
      (* the read disappears, and with it the anti-dependences that
         protected it *)
      G.drop_order_references g id;
      G.replace_uses g id ~by:stored;
      true
    end
    else if stop <> token then begin
      G.set_inputs g id [ stop; offset ];
      true
    end
    else false
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
  | G.St _ | G.Del _ ->
    false

let store_to_fetch_rule = Pass.local "store-to-fetch" forward_fetch

let token_mutator g id =
  match G.kind g id with
  | G.St _ | G.Del _ -> true
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _ | G.Fe _
    ->
    false

(* Stores and deletes both read their offset on port 1. *)
let offset_of g id =
  match G.kind g id with
  | G.St _ | G.Del _ -> G.input g id 1
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _ | G.Fe _
    ->
    invalid_arg "offset_of: not a store/delete"

let region_of g id =
  match G.kind g id with
  | G.St r | G.Del r | G.Ss_in r | G.Ss_out r | G.Fe r -> r
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux ->
    invalid_arg "region_of: node has no region"

let same_offset g a b =
  match Fold.relate g (offset_of g a) (offset_of g b) with
  | Fold.Equal -> true
  | Fold.Different | Fold.Unknown -> false

(* One store/delete's worth of dead-store bypassing, reading the live
   use/def index. *)
let bypass_dead_store g id =
  let consumer = if token_mutator g id then G.sole_consumer g id else -1 in
  if consumer >= 0
     && G.input g consumer 0 = id
     && token_mutator g consumer
     && String.equal (region_of g id) (region_of g consumer)
     && same_offset g id consumer
  then begin
    (* The consumer overwrites this node's cell before anyone fetches it:
       bypass. Ordering constraints migrate to the consumer. *)
    G.set_inputs g consumer (G.input g id 0 :: List.tl (G.inputs g consumer));
    List.iter
      (fun before -> G.add_order g consumer ~after:before)
      (G.order_after g id);
    true
  end
  else false

let dead_store_rule = Pass.local "dead-store" bypass_dead_store
