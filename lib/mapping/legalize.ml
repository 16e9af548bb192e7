module G = Cdfg.Graph
module D = Fpfa_diag.Diag

exception Unmappable of string

let unmappablef fmt = Format.kasprintf (fun msg -> raise (Unmappable msg)) fmt

let is_access = function G.Fe _ | G.St _ | G.Del _ -> true | _ -> false

(* Every access reads its offset at port 1. *)
let const_offset g node_id =
  if not (is_access (G.kind g node_id)) then
    unmappablef "node %d is not a statespace access" node_id;
  match G.kind g (G.input g node_id 1) with
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
  (* The values some store writes back, marked in one graph scan instead
     of one full-graph fold per named output. *)
  let stored = Bytes.make (G.id_bound g) '\000' in
  G.iter_ids g (fun id ->
      let kind = G.kind g id in
      if is_access kind then begin
        match G.kind g (G.input g id 1) with
        | G.Const c when c >= 0 -> ()
        | G.Const c ->
          add
            (D.error ~node:id "ss.offset-negative"
               "negative statespace offset %d" c)
        | _ ->
          add
            (D.error ~node:id "ss.offset-dynamic"
               "node %d has a dynamic statespace offset (unroll and simplify \
                first)"
               id)
      end;
      match kind with
      | G.St _ -> Bytes.set stored (G.input g id 2) '\001'
      | _ -> ());
  List.iter
    (fun (name, id) ->
      (* A named output must reach memory through some store, otherwise the
         tile has nowhere observable to leave it. *)
      if Bytes.get stored id = '\000' then
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
   length, so both answers come from two walks of the token chains that
   keep one array cell per distinct offset: down each region's tree of
   tokens, a mutator holds its cell while the walk is below it; back up
   each path of consuming mutators, a mutator takes its cell for the
   tokens above it. The same walks record what phase 3 reads per region
   and per mutator: the largest offset accessed, and the fetches each
   mutator destroys.

   The answers are kept per access, numbered in topological order: a
   minimised graph's ids are sparse (matmul-8 keeps 1,234 of 12,802), and
   the clustering holds these facts for as long as it is shared. *)
type versions = {
  rank : int array;  (* node id -> access number, -1 for other nodes *)
  offsets : int array;  (* by access number, as are the next four *)
  regions : int array;  (* position in [G.regions], -1 if undeclared *)
  latest : G.id option array;
  overwriter : G.id option array;
      (* stored as options so that phase 3, which asks on every level
         attempt, allocates nothing *)
  destroys : G.id list array;
  region_names : string array;  (* [G.regions], by position *)
  max_offsets : int array;  (* by region position *)
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
  let regions = Array.make accesses (-1) in
  let latest = Array.make accesses (-1) in
  let overwriter = Array.make accesses (-1) in
  let destroys = Array.make accesses [] in
  let region_names = Array.of_list (List.map fst (G.regions g)) in
  let max_offsets = Array.make (Array.length region_names) (-1) in
  let position = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace position name i) region_names;
  List.iter
    (fun id ->
      match G.kind g id with
      | G.Fe region | G.St region | G.Del region ->
        let r = rank.(id) in
        let offset = const_offset g id in
        offsets.(r) <- offset;
        Option.iter
          (fun p ->
            regions.(r) <- p;
            if offset > max_offsets.(p) then max_offsets.(p) <- offset)
          (Hashtbl.find_opt position region)
      | _ -> ())
    topo;
  (* One cell per distinct offset, numbered densely (offsets can be
     large and sparse), for every region in turn: each walk below leaves
     the cells it set at -1 again. *)
  let numbers = Hashtbl.create 64 in
  let cells =
    Array.map
      (fun offset ->
        match Hashtbl.find_opt numbers offset with
        | Some k -> k
        | None ->
          let k = Hashtbl.length numbers in
          Hashtbl.add numbers offset k;
          k)
      offsets
  in
  let cell = Array.make (Hashtbl.length numbers) (-1) in
  let cell_of id = cells.(rank.(id)) in
  (* Down from a token: each access consuming it sees the cell's mutator
     at or above the token, and a mutator holds its cell for the walk
     below it. *)
  let rec down token =
    G.iter_consumers g token (fun c port ->
        let r = rank.(c) in
        if port = 0 && r >= 0 then begin
          let k = cells.(r) in
          latest.(r) <- cell.(k);
          if mutator c then begin
            let above = cell.(k) in
            cell.(k) <- c;
            down c;
            cell.(k) <- above
          end
        end)
  in
  (* From each token, walkers follow the mutator that consumes it, and
     when two do, the one with the larger id; so the tokens lie on
     disjoint paths. Back up a path, the cells hold the first mutator
     below the current token, which each fetch of it reads. *)
  let next = Array.make n (-1) in
  G.iter_ids g (fun id -> if mutator id then next.(G.input g id 0) <- id);
  let rec up token =
    let m = next.(token) in
    if m >= 0 then begin
      up m;
      cell.(cell_of m) <- m
    end;
    G.iter_consumers g token (fun c port ->
        match G.kind g c with
        | G.Fe _ when port = 0 -> overwriter.(rank.(c)) <- cell.(cell_of c)
        | _ -> ())
  in
  let rec clear token =
    let m = next.(token) in
    if m >= 0 then begin
      cell.(cell_of m) <- -1;
      clear m
    end
  in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Ss_in _ ->
        down id;
        up id;
        clear id
      | (G.St _ | G.Del _) when next.(G.input g id 0) <> id ->
        up id;
        clear id
      | _ -> ());
  (* Ascending ids, each prepended: every [destroys] list is descending. *)
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe _ ->
        let m = overwriter.(rank.(id)) in
        if m >= 0 then destroys.(rank.(m)) <- id :: destroys.(rank.(m))
      | _ -> ());
  let opt id = if id < 0 then None else Some id in
  {
    rank;
    offsets;
    regions;
    latest = Array.map opt latest;
    overwriter = Array.map opt overwriter;
    destroys;
    region_names;
    max_offsets;
  }

let access_count v = Array.length v.offsets
let access_index v id = if id >= 0 && id < Array.length v.rank then v.rank.(id) else -1

(* The answer stored for access [id]; [default] for any other node. *)
let by_rank v answers default id =
  let r = access_index v id in
  if r < 0 then default else answers.(r)

let offset v id = by_rank v v.offsets (-1) id
let region_index v id = by_rank v v.regions (-1) id
let latest_version v id = by_rank v v.latest None id
let overwriter v id = by_rank v v.overwriter None id
let destroyed_by v id = by_rank v v.destroys [] id

let max_offset v region =
  let rec find p =
    if p >= Array.length v.region_names then -1
    else if String.equal v.region_names.(p) region then v.max_offsets.(p)
    else find (p + 1)
  in
  find 0
