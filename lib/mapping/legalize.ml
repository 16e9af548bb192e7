module G = Cdfg.Graph
module D = Fpfa_diag.Diag

exception Unmappable of string

let unmappablef fmt = Format.kasprintf (fun msg -> raise (Unmappable msg)) fmt

let const_offset g node_id =
  let offset_input =
    match (G.kind g node_id, G.inputs g node_id) with
    | G.Fe _, [ _; offset ] | G.Del _, [ _; offset ] | G.St _, [ _; offset; _ ]
      ->
      offset
    | _, _ -> unmappablef "node %d is not a statespace access" node_id
  in
  match G.kind g offset_input with
  | G.Const c ->
    if c < 0 then unmappablef "negative statespace offset %d" c;
    c
  | _ ->
    unmappablef
      "node %d has a dynamic statespace offset (unroll and simplify first)"
      node_id

(* Diagnostic-producing legality check. [check] keeps its historical
   raise-on-first behaviour as a thin wrapper, so the clustering phase and
   the `fpfa_map check` validators share one implementation. *)
let check_diags g =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let offset_diag (n : G.node) =
    match (n.G.kind, Array.to_list n.G.inputs) with
    | G.Fe _, [ _; offset ] | G.Del _, [ _; offset ]
    | G.St _, [ _; offset; _ ] -> (
      match G.kind g offset with
      | G.Const c when c >= 0 -> ()
      | G.Const c ->
        add
          (D.error ~node:n.G.id "ss.offset-negative"
             "negative statespace offset %d" c)
      | _ ->
        add
          (D.error ~node:n.G.id "ss.offset-dynamic"
             "node %d has a dynamic statespace offset (unroll and simplify \
              first)"
             n.G.id))
    | _ -> ()
  in
  (* The set of value ids some store writes back: one graph scan instead of
     one full-graph fold per named output. *)
  let stored =
    G.fold g ~init:G.Id_set.empty ~f:(fun acc n ->
        offset_diag n;
        match n.G.kind with
        | G.St _ when Array.length n.G.inputs = 3 ->
          G.Id_set.add n.G.inputs.(2) acc
        | _ -> acc)
  in
  List.iter
    (fun (name, id) ->
      (* A named output must reach memory through some store, otherwise the
         tile has nowhere observable to leave it. *)
      if not (G.Id_set.mem id stored) then
        add
          (D.error ~node:id "ss.output-not-stored"
             "named output %s is not stored to any region" name))
    (G.outputs g);
  List.rev !diags

let check g =
  match check_diags g with
  | [] -> ()
  | d :: _ -> raise (Unmappable d.D.message)

(* Statespace versions. A [St]/[Del] creates a new version of one cell of
   its region, and the token chain orders the versions. Both mapping
   phases ask two questions of every access: which version it sees (the
   latest same-cell mutator at or above its token) and, for a fetch, which
   mutator destroys the value it read (the first same-cell mutator below
   its token). Walking the chain per query is quadratic in the chain
   length, so both answers come from maps offset -> mutator, one per token
   producer, built once in topological order. The maps are persistent:
   each mutator adds one binding to its token's map. *)
type versions = { offsets : int array; latest : int array; overwriter : int array }

let versions g =
  let n = G.id_bound g in
  let offsets = Array.make n (-1) in
  let latest = Array.make n (-1) in
  let overwriter = Array.make n (-1) in
  let topo = G.topo_order g in
  let mutator id =
    match G.kind g id with G.St _ | G.Del _ -> true | _ -> false
  in
  let access id =
    match G.kind g id with G.Fe _ | G.St _ | G.Del _ -> true | _ -> false
  in
  List.iter (fun id -> if access id then offsets.(id) <- const_offset g id) topo;
  let find offset map =
    match G.Id_map.find_opt offset map with Some m -> m | None -> -1
  in
  (* Downwards: walkers follow, from each token, the mutator that consumes
     it, and when two do, the one with the larger id. *)
  let next = Array.make n (-1) in
  G.iter_ids g (fun id -> if mutator id then next.(G.input g id 0) <- id);
  let above = Array.make n G.Id_map.empty in
  List.iter
    (fun id ->
      if access id then begin
        let token = G.input g id 0 in
        latest.(id) <- find offsets.(id) above.(token);
        if mutator id then above.(id) <- G.Id_map.add offsets.(id) id above.(token)
      end)
    topo;
  let below = Array.make n G.Id_map.empty in
  List.iter
    (fun id ->
      let m = next.(id) in
      if m >= 0 then below.(id) <- G.Id_map.add offsets.(m) m below.(m))
    (List.rev topo);
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe _ -> overwriter.(id) <- find offsets.(id) below.(G.input g id 0)
      | _ -> ());
  { offsets; latest; overwriter }

let offset v id = v.offsets.(id)
let opt id = if id < 0 then None else Some id
let latest_version v id = opt v.latest.(id)
let overwriter v id = opt v.overwriter.(id)
