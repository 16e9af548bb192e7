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
   each mutator adds one binding to its token's map. The same walks
   record what phase 3 reads per region and per mutator: the largest
   offset accessed, and the fetches each mutator destroys.

   The answers are kept per access, numbered in topological order: a
   minimised graph's ids are sparse (matmul-8 keeps 1,234 of 12,802), and
   the clustering holds these facts for as long as it is shared. *)
type versions = {
  rank : int array;  (* node id -> access number, -1 for other nodes *)
  offsets : int array;  (* by access number, as are the next three *)
  latest : G.id option array;
  overwriter : G.id option array;
      (* stored as options so that phase 3, which asks on every level
         attempt, allocates nothing *)
  destroys : G.id list array;
  max_offsets : (string, int) Hashtbl.t;
}

let versions g =
  let n = G.id_bound g in
  let topo = G.topo_order g in
  let mutator id =
    match G.kind g id with G.St _ | G.Del _ -> true | _ -> false
  in
  let rank = Array.make n (-1) in
  let accesses =
    List.fold_left
      (fun count id ->
        match G.kind g id with
        | G.Fe _ | G.St _ | G.Del _ ->
          rank.(id) <- count;
          count + 1
        | _ -> count)
      0 topo
  in
  let offsets = Array.make accesses (-1) in
  let latest = Array.make accesses (-1) in
  let overwriter = Array.make accesses (-1) in
  let destroys = Array.make accesses [] in
  let max_offsets = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match G.kind g id with
      | G.Fe region | G.St region | G.Del region ->
        let offset = const_offset g id in
        offsets.(rank.(id)) <- offset;
        if offset > Option.value ~default:(-1) (Hashtbl.find_opt max_offsets region)
        then Hashtbl.replace max_offsets region offset
      | _ -> ())
    topo;
  let offset_of id = offsets.(rank.(id)) in
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
      let r = rank.(id) in
      if r >= 0 then begin
        let token = G.input g id 0 in
        latest.(r) <- find offsets.(r) above.(token);
        if mutator id then above.(id) <- G.Id_map.add offsets.(r) id above.(token)
      end)
    topo;
  let below = Array.make n G.Id_map.empty in
  List.iter
    (fun id ->
      let m = next.(id) in
      if m >= 0 then below.(id) <- G.Id_map.add (offset_of m) m below.(m))
    (List.rev topo);
  (* Ascending ids, each prepended: every [destroys] list is descending. *)
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe _ ->
        let r = rank.(id) in
        let m = find offsets.(r) below.(G.input g id 0) in
        overwriter.(r) <- m;
        if m >= 0 then destroys.(rank.(m)) <- id :: destroys.(rank.(m))
      | _ -> ());
  let opt id = if id < 0 then None else Some id in
  {
    rank;
    offsets;
    latest = Array.map opt latest;
    overwriter = Array.map opt overwriter;
    destroys;
    max_offsets;
  }

let access_count v = Array.length v.offsets
let access_index v id = if id >= 0 && id < Array.length v.rank then v.rank.(id) else -1

(* The answer stored for access [id]; [default] for any other node. *)
let by_rank v answers default id =
  let r = access_index v id in
  if r < 0 then default else answers.(r)

let offset v id = by_rank v v.offsets (-1) id
let latest_version v id = by_rank v v.latest None id
let overwriter v id = by_rank v v.overwriter None id
let destroyed_by v id = by_rank v v.destroys [] id

let max_offset v region =
  Option.value ~default:(-1) (Hashtbl.find_opt v.max_offsets region)
