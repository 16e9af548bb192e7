module G = Cdfg.Graph

type offset_relation = Equal | Different | Unknown

let relate g a b =
  if a = b then Equal
  else
    match (G.kind g a, G.kind g b) with
    | G.Const x, G.Const y -> if x = y then Equal else Different
    | _, _ -> Unknown

type resolution =
  | Value of G.id  (** the fetched value is produced by this node *)
  | Anchor of G.id  (** walk stopped; re-anchor the fetch on this token *)

(* Walks the token chain of [fe] upwards past provably non-aliasing
   stores/deletes. *)
let resolve g ~offset token =
  let rec walk token =
    match G.kind g token with
    | G.St _ -> (
      let inputs = G.inputs g token in
      match inputs with
      | [ prev_token; st_offset; st_value ] -> (
        match relate g st_offset offset with
        | Equal -> Value st_value
        | Different -> walk prev_token
        | Unknown -> Anchor token)
      | _ -> assert false)
    | G.Del _ -> (
      let inputs = G.inputs g token in
      match inputs with
      | [ prev_token; del_offset ] -> (
        match relate g del_offset offset with
        | Different -> walk prev_token
        (* Equal would make the fetch a runtime error; leave it visible. *)
        | Equal | Unknown -> Anchor token)
      | _ -> assert false)
    | G.Ss_in _ -> Anchor token
    | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_out _ | G.Fe _ ->
      Anchor token
  in
  walk token

(* One fetch's worth of forwarding. *)
let forward_fetch g (n : G.node) =
  match n.G.kind with
  | G.Fe _ -> (
    let token = n.G.inputs.(0) and offset = n.G.inputs.(1) in
    match resolve g ~offset token with
    | Value v ->
      (* the read disappears, and with it the anti-dependences that
         protected it *)
      G.drop_order_references g n.G.id;
      G.replace_uses g n.G.id ~by:v;
      true
    | Anchor anchor ->
      if anchor <> token then begin
        G.set_inputs g n.G.id [ anchor; offset ];
        true
      end
      else false)
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
  | G.St _ | G.Del _ ->
    false

let store_to_fetch_rule =
  Pass.local "store-to-fetch" (fun g id -> forward_fetch g (G.node g id))

let token_mutator g id =
  match G.kind g id with
  | G.St _ | G.Del _ -> true
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _ | G.Fe _
    ->
    false

let offset_of g id =
  match (G.kind g id, G.inputs g id) with
  | G.St _, [ _; offset; _ ] | G.Del _, [ _; offset ] -> offset
  | _, _ -> invalid_arg "offset_of: not a store/delete"

let region_of g id =
  match G.kind g id with
  | G.St r | G.Del r | G.Ss_in r | G.Ss_out r | G.Fe r -> r
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux ->
    invalid_arg "region_of: node has no region"

(* One store/delete's worth of dead-store bypassing, reading the live
   use/def index. *)
let bypass_dead_store g (n : G.node) =
  if not (token_mutator g n.G.id) then false
  else
    match G.sole_consumer g n.G.id with
    | consumer
      when consumer >= 0
           && G.input g consumer 0 = n.G.id
           && token_mutator g consumer
           && String.equal (region_of g n.G.id) (region_of g consumer)
           && relate g (offset_of g n.G.id) (offset_of g consumer) = Equal -> (
      (* The consumer overwrites this node's cell before anyone fetches
         it: bypass. Ordering constraints migrate to the consumer. *)
      match G.inputs g consumer with
      | prev_token :: rest when prev_token = n.G.id ->
        let my_token = List.nth (G.inputs g n.G.id) 0 in
        G.set_inputs g consumer (my_token :: rest);
        List.iter
          (fun before -> G.add_order g consumer ~after:before)
          (G.order_after g n.G.id);
        true
      | _ -> false)
    | _ -> false

let dead_store_rule =
  Pass.local "dead-store" (fun g id -> bypass_dead_store g (G.node g id))
