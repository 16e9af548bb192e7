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

(* One fetch's worth of forwarding; shared by the whole-graph pass and the
   worklist rule. *)
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

let run_store_to_fetch g =
  let changed = ref false in
  List.iter
    (fun id ->
      if G.mem g id && forward_fetch g (G.node g id) then changed := true)
    (G.node_ids g);
  !changed

let store_to_fetch = { Pass.name = "store-to-fetch"; run = run_store_to_fetch }

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

let run_dead_store g =
  let changed = ref false in
  List.iter
    (fun id ->
      if G.mem g id && bypass_dead_store g (G.node g id) then changed := true)
    (G.node_ids g);
  !changed

let dead_store = { Pass.name = "dead-store"; run = run_dead_store }

let dead_store_rule =
  Pass.local "dead-store" (fun g id -> bypass_dead_store g (G.node g id))

(* {2 Token-order canonical form}

   The builder orders every writer of a region after all pending fetches
   of the version it supersedes. Rewrites erode that shape in
   firing-order-dependent ways: CSE inherits a merged duplicate's
   anti-dependence edges, DCE buries a dead fetch's edges with it, and
   store-to-fetch re-anchors a fetch without revisiting the edges that
   protected its old position. Left alone, the surviving edge set depends
   on which of those rules happened to fire first, and the two engines
   diverge on graphs where a merged fetch's duplicate was dead.

   The canonicaliser restores the builder's invariant for the *current*
   token anchors: every same-region fetch reading version [t] is ordered
   before each writer that consumes [t] directly, and an edge to a writer
   farther down the chain is retargeted to the direct consumer (which
   implies the original constraint transitively through the chain). The
   result is a function of the fetch's token anchor alone. No address
   oracle is consulted: the conservative shape is preserved and
   {!Transform.Disambig} keeps its entire pruning workload. *)

let canon_node g (n : G.node) =
  let changed = ref false in
  let ensure_edge w ~fe =
    if not (G.has_order g w ~after:fe) then begin
      G.add_order g w ~after:fe;
      changed := true
    end
  in
  (* orders every fetch of token version [t] before writer [w], in
     ascending fetch id *)
  let ensure_fetches_precede w ~region ~t =
    G.iter_consumers g t (fun c port ->
        if port = 0 && c <> w then
          match G.kind g c with
          | G.Fe r when String.equal r region -> ensure_edge w ~fe:c
          | _ -> ())
  in
  (match n.G.kind with
  | G.Fe region ->
    G.iter_consumers g n.G.inputs.(0) (fun w port ->
        if port = 0 then
          match G.kind g w with
          | (G.St r | G.Del r) when String.equal r region ->
            ensure_edge w ~fe:n.G.id
          | _ -> ())
  | G.St region | G.Del region ->
    let t = n.G.inputs.(0) in
    ensure_fetches_precede n.G.id ~region ~t;
    List.iter
      (fun fe ->
        if G.mem g fe then
          match G.kind g fe with
          | G.Fe r when String.equal r region -> (
            let anchor = List.nth (G.inputs g fe) 0 in
            if t <> anchor then begin
              (* climb this writer's token chain; the step out of the
                 anchor is the canonical target *)
              let rec climb id =
                match G.kind g id with
                | (G.St r' | G.Del r') when String.equal r' region ->
                  let tok = List.nth (G.inputs g id) 0 in
                  if tok = anchor then Some id else climb tok
                | _ -> None
              in
              match climb n.G.id with
              | Some w0 when w0 <> n.G.id ->
                G.remove_order g n.G.id ~after:fe;
                G.add_order g w0 ~after:fe;
                changed := true
              | Some _ | None -> ()
            end)
          | _ -> ())
      n.G.order_after
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _ -> ());
  !changed

let run_order_canon g =
  let changed = ref false in
  List.iter
    (fun id ->
      if G.mem g id && canon_node g (G.node g id) then changed := true)
    (G.node_ids g);
  !changed

let order_canon = { Pass.name = "order-canon"; run = run_order_canon }

let order_canon_rule =
  Pass.local "order-canon" (fun g id -> canon_node g (G.node g id))
