module G = Cdfg.Graph
module Op = Cdfg.Op
module Arch = Fpfa_arch.Arch

type cluster = {
  cid : int;
  ops : G.id list;
  root : G.id option;
  stores : G.id list;
  deletes : G.id list;
  cinputs : G.id list;
}

type edge = { src : int; dst : int; weight : int }

type t = {
  graph : G.t;
  clusters : cluster array;
  edges : edge list;
  cluster_of : int array;
  versions : Legalize.versions;
  root_external : bool array;
  micros : (Job.micro list, string) result array;
  port_imms : (int * int) list array;
  region_touches : int list array;
}

exception Clustering_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Clustering_error msg)) fmt

let is_value_op g id =
  match G.kind g id with
  | G.Binop _ | G.Unop _ | G.Mux -> true
  | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ -> false

let is_mult_class g id =
  match G.kind g id with
  | G.Binop op -> Op.is_multiplier_class op
  | _ -> false

(* Position of every live node in [topo] (-1 for ids not in it). *)
let topo_positions g topo =
  let pos = Array.make (G.id_bound g) (-1) in
  List.iteri (fun i id -> pos.(id) <- i) topo;
  pos

(* Member ids in ascending topo position. Positions are unique, so the
   pairs sort without an id tie-break. *)
let in_topo_order topo_pos ids =
  List.map (fun id -> (topo_pos.(id), id)) ids
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Distinct external operands of a member set, in deterministic first-use
   order (scanning members in ascending topo position, ports left to
   right). *)
let external_inputs g topo_pos members =
  let member_list = in_topo_order topo_pos (G.Id_set.elements members) in
  (* a data path has a handful of operands: a list is the cheapest set *)
  let acc = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun input ->
          if (not (G.Id_set.mem input members)) && not (List.mem input !acc)
          then acc := input :: !acc)
        (G.inputs g m))
    member_list;
  List.rev !acc

(* Longest path within the member subgraph, counted in operations. *)
let internal_depth g members =
  let rec depth id =
    if not (G.Id_set.mem id members) then 0
    else
      1
      + List.fold_left (fun acc input -> max acc (depth input)) 0 (G.inputs g id)
  in
  G.Id_set.fold (fun id acc -> max acc (depth id)) members 0

let satisfies_caps g topo_pos (caps : Arch.alu_caps) members =
  G.Id_set.cardinal members <= caps.Arch.max_ops
  && G.Id_set.fold
       (fun id acc -> acc + if is_mult_class g id then 1 else 0)
       members 0
     <= caps.Arch.max_multipliers
  && internal_depth g members <= caps.Arch.max_depth
  && List.length (external_inputs g topo_pos members) <= caps.Arch.max_inputs

type proto = {
  p_ops : G.Id_set.t;
  p_root : G.id;
  mutable p_stores : G.id list;
  p_deletes : G.id list;
}

(* Shared context of the partitioning algorithms. *)
type ctx = {
  cg : G.t;
  topo : G.id list;
  topo_pos : int array;
  consumers : (G.id, (G.id * int) list) Hashtbl.t;
  named_output_ids : G.Id_set.t;
  versions : Legalize.versions;
}

let make_ctx g =
  Legalize.check g;
  let topo = G.topo_order g in
  {
    cg = g;
    topo;
    topo_pos = topo_positions g topo;
    consumers = G.consumers g;
    named_output_ids =
      List.fold_left
        (fun s (_, id) -> G.Id_set.add id s)
        G.Id_set.empty (G.outputs g);
    versions = Legalize.versions g;
  }

(* Node id -> cid of the cluster listing it as an op, store or delete;
   -1 for every other id. *)
let index g clusters =
  let cluster_of = Array.make (G.id_bound g) (-1) in
  Array.iter
    (fun c ->
      List.iter (fun id -> cluster_of.(id) <- c.cid) c.ops;
      List.iter (fun id -> cluster_of.(id) <- c.cid) c.stores;
      List.iter (fun id -> cluster_of.(id) <- c.cid) c.deletes)
    clusters;
  cluster_of

exception Malformed of string

(* The micro-ops an ALU runs for [c], in member order: an operand is a
   member's result exactly when the index lists it under this cluster
   (operands are values, never the cluster's St/Del), else one of its
   ports. A cluster no ALU can run yields the text phase 3 raises when
   it allocates the cluster. *)
let micro_program g cluster_of c =
  let fail fmt = Format.kasprintf (fun msg -> raise (Malformed msg)) fmt in
  let ports = List.mapi (fun i input -> (input, i)) c.cinputs in
  let arg_of input =
    if cluster_of.(input) = c.cid then Job.Node input
    else
      match List.assoc_opt input ports with
      | Some p -> Job.Port p
      | None -> fail "operand %d of cluster %d is not a port" input c.cid
  in
  match
    match c.ops with
    | [] -> (
      match c.root with
      | Some src -> [ { Job.node = src; action = Job.Pass; args = [ arg_of src ] } ]
      | None -> [])
    | ops ->
      List.map
        (fun op ->
          let args = List.map arg_of (G.inputs g op) in
          let action =
            match G.kind g op with
            | G.Binop b -> Job.Bin b
            | G.Unop u -> Job.Un u
            | G.Mux -> Job.Mux3
            | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ | G.St _ | G.Del _ ->
              fail "non-value op %d inside cluster %d" op c.cid
          in
          { Job.node = op; action; args })
        ops
  with
  | micros -> Ok micros
  | exception Malformed msg -> Error msg

(* Port -> value of each constant operand. *)
let immediates g c =
  List.mapi (fun i input -> (i, input)) c.cinputs
  |> List.filter_map (fun (i, input) ->
         match G.kind g input with G.Const v -> Some (i, v) | _ -> None)

(* The regions each cluster's stores, deletes and fetched operands touch,
   in that order, as positions in [G.regions g]. *)
let region_touches g clusters =
  let position = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace position name i) (G.regions g);
  let touched select id =
    match select (G.kind g id) with
    | Some name -> Hashtbl.find_opt position name
    | None -> None
  in
  let store = function G.St r -> Some r | _ -> None
  and delete = function G.Del r -> Some r | _ -> None
  and fetch = function G.Fe r -> Some r | _ -> None in
  Array.map
    (fun c ->
      List.filter_map (touched store) c.stores
      @ List.filter_map (touched delete) c.deletes
      @ List.filter_map (touched fetch) c.cinputs)
    clusters

(* The one constructor of [t]: what phase 3 reads of the graph and its
   clustering is complete before the clustering exists, so every tile
   point that allocates it (on any domain) shares it read-only. A root's
   consumers come from the graph's live use index; none is a [Del] (a
   delete reads only a token and a constant), so "in the cluster" is
   "listed as one of its ops or stores". *)
let build ~versions g clusters edges cluster_of =
  let root_external =
    Array.map
      (fun c ->
        match c.root with
        | None -> false
        | Some root ->
          let external_use = ref false in
          G.iter_consumers g root (fun user _ ->
              if cluster_of.(user) <> c.cid then external_use := true);
          !external_use)
      clusters
  in
  {
    graph = g;
    clusters;
    edges;
    cluster_of;
    versions;
    root_external;
    micros = Array.map (micro_program g cluster_of) clusters;
    port_imms = Array.map (immediates g) clusters;
    region_touches = region_touches g clusters;
  }

let make g clusters edges =
  Legalize.check g;
  build ~versions:(Legalize.versions g) g clusters edges (index g clusters)

(* Greedy data-path template partitioning (the paper's phase 1). *)
let partition_greedy ctx caps =
  let g = ctx.cg in
  let topo_pos = ctx.topo_pos in
  let consumers = ctx.consumers in
  let named_output_ids = ctx.named_output_ids in
  let clustered : (G.id, unit) Hashtbl.t = Hashtbl.create 64 in
  let protos : proto list ref = ref [] in
  (* Greedy growth from roots, visiting value ops in reverse topo order so
     consumers claim their producers first. *)
  let grow root =
    let members = ref (G.Id_set.singleton root) in
    Hashtbl.replace clustered root ();
    let rec absorb () =
      let candidates =
        G.Id_set.fold
          (fun m acc ->
            List.fold_left
              (fun acc input ->
                if
                  is_value_op g input
                  && (not (Hashtbl.mem clustered input))
                  && not (G.Id_set.mem input !members)
                then input :: acc
                else acc)
              acc (G.inputs g m))
          !members []
        |> Fpfa_util.Listx.uniq compare
      in
      let absorbable p =
        (* every consumer of p must already be a member, and p must not be
           a named output (its value is observable outside) *)
        (not (G.Id_set.mem p named_output_ids))
        && (match Hashtbl.find_opt consumers p with
           | Some uses ->
             List.for_all (fun (c, _) -> G.Id_set.mem c !members) uses
           | None -> true)
        && satisfies_caps g topo_pos caps (G.Id_set.add p !members)
      in
      match List.find_opt absorbable candidates with
      | Some p ->
        members := G.Id_set.add p !members;
        Hashtbl.replace clustered p ();
        absorb ()
      | None -> ()
    in
    absorb ();
    protos :=
      { p_ops = !members; p_root = root; p_stores = []; p_deletes = [] }
      :: !protos
  in
  List.iter
    (fun id -> if is_value_op g id && not (Hashtbl.mem clustered id) then grow id)
    (List.rev ctx.topo);
  !protos

(* Sarkar-style edge zeroing: start from unit clusters and merge along data
   edges (in deterministic topological edge order) whenever the fused
   cluster still fits the ALU data path and keeps a single result. In the
   one-cycle-per-cluster model a legal merge never lengthens the critical
   path, so Sarkar's completion-time guard reduces to the cap check. *)
let partition_sarkar ctx caps =
  let g = ctx.cg in
  let topo_pos = ctx.topo_pos in
  let find_pos id = topo_pos.(id) in
  let cluster_ref : (G.id, G.id) Hashtbl.t = Hashtbl.create 64 in
  let members_of : (G.id, G.Id_set.t) Hashtbl.t = Hashtbl.create 64 in
  let roots : (G.id, G.id) Hashtbl.t = Hashtbl.create 64 in
  let value_ops = List.filter (is_value_op g) (G.node_ids g) in
  List.iter
    (fun id ->
      Hashtbl.replace cluster_ref id id;
      Hashtbl.replace members_of id (G.Id_set.singleton id);
      Hashtbl.replace roots id id)
    value_ops;
  let rec find id =
    let parent = Hashtbl.find cluster_ref id in
    if parent = id then id
    else begin
      let root = find parent in
      Hashtbl.replace cluster_ref id root;
      root
    end
  in
  let edges =
    List.concat_map
      (fun v ->
        match Hashtbl.find_opt ctx.consumers v with
        | Some uses ->
          List.filter_map
            (fun (u, _) -> if is_value_op g u then Some (v, u) else None)
            uses
        | None -> [])
      value_ops
    |> Fpfa_util.Listx.uniq compare
    |> List.sort (fun (v1, u1) (v2, u2) ->
           compare (find_pos v1, find_pos u1) (find_pos v2, find_pos u2))
  in
  List.iter
    (fun (v, u) ->
      let cv = find v and cu = find u in
      if cv <> cu then begin
        let mv = Hashtbl.find members_of cv and mu = Hashtbl.find members_of cu in
        let producer_root = Hashtbl.find roots cv in
        let external_ok =
          (not (G.Id_set.mem producer_root ctx.named_output_ids))
          && (match Hashtbl.find_opt ctx.consumers producer_root with
             | Some uses ->
               List.for_all
                 (fun (user, _) -> G.Id_set.mem user mu || G.Id_set.mem user mv)
                 uses
             | None -> true)
        in
        let merged = G.Id_set.union mv mu in
        if external_ok && satisfies_caps g topo_pos caps merged then begin
          Hashtbl.replace cluster_ref cv cu;
          Hashtbl.replace members_of cu merged
        end
      end)
    edges;
  let reps = Fpfa_util.Listx.uniq compare (List.map find value_ops) in
  List.map
    (fun rep ->
      {
        p_ops = Hashtbl.find members_of rep;
        p_root = Hashtbl.find roots rep;
        p_stores = [];
        p_deletes = [];
      })
    reps

(* Kahn's algorithm over cluster edges: which of [n] clusters are reached
   from the sources without passing through a cycle. *)
let kahn n edges =
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  List.iter
    (fun e ->
      indeg.(e.dst) <- indeg.(e.dst) + 1;
      (* an edge from outside the clusters is never released *)
      if e.src >= 0 && e.src < n then succs.(e.src) <- e.dst :: succs.(e.src))
    edges;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let seen = Array.make n false in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    seen.(c) <- true;
    List.iter
      (fun dst ->
        indeg.(dst) <- indeg.(dst) - 1;
        if indeg.(dst) = 0 then Queue.add dst queue)
      succs.(c)
  done;
  seen

(* Attaches stores/deletes, numbers clusters and derives dependence edges
   from a value-op partition. *)
let rec assemble ctx ~detached value_protos =
  let g = ctx.cg in
  let topo_pos = ctx.topo_pos in
  let consumers = ctx.consumers in
  List.iter (fun p -> p.p_stores <- []) value_protos;
  let protos : proto list ref = ref value_protos in
  (* Attach stores: a store joins the cluster producing its value; a store
     of a constant or fetched value gets a pass-through cluster (shared per
     source). *)
  let proto_of_op : (G.id, proto) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p -> G.Id_set.iter (fun id -> Hashtbl.replace proto_of_op id p) p.p_ops)
    !protos;
  (* One store per cluster. A second store of the same value must not join
     the producing cluster: two multi-store clusters can hold interleaved
     positions of one token chain and deadlock the level schedule. The
     extra stores become pass-through clusters that re-emit the value. *)
  let attach_store st value =
    let fresh_passthrough () =
      let p =
        { p_ops = G.Id_set.empty; p_root = value; p_stores = [ st ];
          p_deletes = [] }
      in
      protos := p :: !protos
    in
    if G.Id_set.mem st detached then fresh_passthrough ()
    else
      match Hashtbl.find_opt proto_of_op value with
      | Some p ->
        if p.p_root <> value then
          errorf "store %d reads interior node %d of a cluster" st value;
        if p.p_stores = [] then p.p_stores <- [ st ] else fresh_passthrough ()
      | None -> fresh_passthrough ()
  in
  G.iter g (fun n ->
      match n.G.kind with
      | G.St _ -> attach_store n.G.id n.G.inputs.(2)
      | G.Del _ ->
        protos :=
          { p_ops = G.Id_set.empty; p_root = n.G.id; p_stores = [];
            p_deletes = [ n.G.id ] }
          :: !protos
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
      | G.Fe _ ->
        ());
  (* Deterministic numbering: by minimum topo position over all attached
     nodes. The sort is stable: pass-through clusters of one fetched value
     share their position. *)
  let position p =
    let pos = ref max_int in
    let see id = if topo_pos.(id) >= 0 then pos := min !pos topo_pos.(id) in
    G.Id_set.iter see p.p_ops;
    List.iter see p.p_stores;
    List.iter see p.p_deletes;
    if G.Id_set.is_empty p.p_ops then see p.p_root;
    !pos
  in
  let ordered =
    List.map (fun p -> (position p, p)) !protos
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let clusters =
    Array.of_list
      (List.mapi
         (fun cid p ->
           let ops = in_topo_order topo_pos (G.Id_set.elements p.p_ops) in
           let root =
             if p.p_deletes <> [] && G.Id_set.is_empty p.p_ops then None
             else Some p.p_root
           in
           let cinputs =
             if ops <> [] then
               external_inputs g topo_pos
                 (List.fold_left
                    (fun s id -> G.Id_set.add id s)
                    G.Id_set.empty ops)
             else match root with Some v -> [ v ] | None -> []
           in
           {
             cid;
             ops;
             root;
             stores = List.sort compare p.p_stores;
             deletes = List.sort compare p.p_deletes;
             cinputs;
           })
         ordered)
  in
  let cluster_of = index g clusters in
  (* Dependency edges. *)
  let edge_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let add_edge src dst weight =
    if src <> dst then
      let key = (src, dst) in
      match Hashtbl.find_opt edge_tbl key with
      | Some w when w >= weight -> ()
      | Some _ | None -> Hashtbl.replace edge_tbl key weight
  in
  (* Anti-dependence (weight-0) edges are a scheduling preference, not a
     hard dataflow constraint: when the reader also consumes the
     overwriting cluster's value, the preference would create a cycle. The
     allocator then guarantees read-before-overwrite with a move deadline
     instead, so such edges are simply skipped. *)
  let soft_candidates : (int * int) list ref = ref [] in
  let add_soft_edge src dst =
    if src <> dst then soft_candidates := (src, dst) :: !soft_candidates
  in
  let flush_soft_edges () =
    (* adjacency snapshot of the hard edges, extended as soft edges land *)
    let succ : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let link src dst =
      let old = match Hashtbl.find_opt succ src with Some l -> l | None -> [] in
      Hashtbl.replace succ src (dst :: old)
    in
    Hashtbl.iter (fun (src, dst) _ -> link src dst) edge_tbl;
    let reaches start goal =
      let visited = Hashtbl.create 16 in
      let rec walk node =
        node = goal
        || (not (Hashtbl.mem visited node))
           && begin
                Hashtbl.replace visited node ();
                List.exists walk
                  (match Hashtbl.find_opt succ node with
                  | Some l -> l
                  | None -> [])
              end
      in
      walk start
    in
    List.iter
      (fun (src, dst) ->
        if (not (Hashtbl.mem edge_tbl (src, dst))) && not (reaches dst src)
        then begin
          add_edge src dst 0;
          link src dst
        end)
      (List.rev !soft_candidates)
  in
  (* Links [dst_cid] after the cluster of the store/delete that made the
     version of the cell an access interacts with. Stores to other cells of
     the region are temporally independent: their write-backs are ordered
     per cell by the allocator, so they impose no level constraint. *)
  let version_edge access dst_cid =
    match Legalize.latest_version ctx.versions access with
    | Some m ->
      let src = cluster_of.(m) in
      if src >= 0 then add_edge src dst_cid 1
      else errorf "unclustered store/delete %d" m
    | None -> ()
  in
  let input_edges dst_cid input =
    match G.kind g input with
    | G.Binop _ | G.Unop _ | G.Mux ->
      let src = cluster_of.(input) in
      if src >= 0 then add_edge src dst_cid 1
      else errorf "unclustered value op %d" input
    | G.Fe _ -> version_edge input dst_cid
    | G.Const _ -> ()
    | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ ->
      errorf "node %d cannot be a cluster operand" input
  in
  Array.iter
    (fun c ->
      List.iter (input_edges c.cid) c.cinputs;
      List.iter (fun node -> version_edge node c.cid) c.stores;
      List.iter (fun node -> version_edge node c.cid) c.deletes)
    clusters;
  (* Anti-dependences: a fetch must not be overtaken by the first
     subsequent store/delete to the same cell. Prefer scheduling the
     fetch's consumers no later than the overwriting cluster. When that
     preference would cycle it is skipped; the allocator then enforces
     read-before-overwrite with a move deadline. *)
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe _ -> (
        match Legalize.overwriter ctx.versions n.G.id with
        | Some overwriter when cluster_of.(overwriter) >= 0 -> (
          let dst = cluster_of.(overwriter) in
          match Hashtbl.find_opt consumers n.G.id with
          | Some uses ->
            List.iter
              (fun (user, _) ->
                let src = cluster_of.(user) in
                if src >= 0 then add_soft_edge src dst)
              uses
          | None -> ())
        | Some _ | None -> ())
      | _ -> ());
  flush_soft_edges ();
  let edges =
    Hashtbl.fold (fun (src, dst) weight acc -> { src; dst; weight } :: acc)
      edge_tbl []
    |> List.sort (fun a b ->
           match Int.compare a.src b.src with
           | 0 -> Int.compare a.dst b.dst
           | c -> c)
  in
  (* A store fused into the cluster producing its value can close a cycle:
     the store's same-cell version edge points in while the root's data
     edges point out. Every cycle must traverse such a fused store (data
     edges alone mirror the acyclic node graph and the per-cell version
     edges alone form chains), so detaching one store per round into a
     pass-through cluster and reassembling terminates and converges to an
     acyclic cluster DAG. *)
  let cycle_participants =
    let seen = kahn (Array.length clusters) edges in
    List.filter (fun cid -> not seen.(cid)) (List.init (Array.length clusters) Fun.id)
  in
  match
    List.find_opt
      (fun cid ->
        clusters.(cid).ops <> [] && clusters.(cid).stores <> [])
      cycle_participants
  with
  | None when cycle_participants = [] ->
    build ~versions:ctx.versions g clusters edges cluster_of
  | None -> errorf "cluster dependence graph has an irreducible cycle"
  | Some cid -> (
    match clusters.(cid).stores with
    | st :: _ -> assemble ctx ~detached:(G.Id_set.add st detached) value_protos
    | [] -> assert false)

let c_clusters = Fpfa_obs.Obs.counter "cluster.clusters"
let c_edges = Fpfa_obs.Obs.counter "cluster.edges"

let tally t =
  Fpfa_obs.Obs.add c_clusters (Array.length t.clusters);
  Fpfa_obs.Obs.add c_edges (List.length t.edges);
  t

let run ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx ~detached:G.Id_set.empty (partition_greedy ctx caps))

let sarkar ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx ~detached:G.Id_set.empty (partition_sarkar ctx caps))

let unit_clusters g = run ~caps:Arch.unit_alu g

let inputs_of c = c.cinputs

let validate t caps =
  let g = t.graph in
  let topo_pos = topo_positions g (G.topo_order g) in
  Array.iter
    (fun c ->
      if c.ops <> [] then begin
        let members =
          List.fold_left (fun s id -> G.Id_set.add id s) G.Id_set.empty c.ops
        in
        if not (satisfies_caps g topo_pos caps members) then
          errorf "cluster %d violates the ALU data-path constraints" c.cid
      end;
      match (c.ops, c.root, c.deletes) with
      | [], None, [] -> errorf "cluster %d is empty" c.cid
      | _ -> ())
    t.clusters;
  (* Kahn over cluster edges (any cycle, regardless of weight, is fatal). *)
  if Array.exists not (kahn (Array.length t.clusters) t.edges) then
    errorf "cluster dependence graph has a cycle"

let pp_cluster g fmt c =
  let op_name id =
    match G.kind g id with
    | G.Binop op -> Op.binop_to_string op
    | G.Unop op -> Op.unop_to_string op
    | G.Mux -> "mux"
    | G.Const v -> string_of_int v
    | G.Fe r -> "FE " ^ r
    | G.St r -> "ST " ^ r
    | G.Del r -> "DEL " ^ r
    | G.Ss_in r -> "ss_in " ^ r
    | G.Ss_out r -> "ss_out " ^ r
  in
  Format.fprintf fmt "Clu%d{%s%s%s}" c.cid
    (String.concat " " (List.map op_name c.ops))
    (match c.stores with
    | [] -> ""
    | stores -> "; st:" ^ String.concat "," (List.map string_of_int stores))
    (match c.deletes with
    | [] -> ""
    | dels -> "; del:" ^ String.concat "," (List.map string_of_int dels))

let to_dot t =
  let g = t.graph in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %S {\n  rankdir=TB;\n  node [shape=box fontsize=10];\n"
       (G.name g));
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=%S];\n" c.cid
           (Format.asprintf "%a" (pp_cluster g) c)))
    t.clusters;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d -> c%d%s;\n" e.src e.dst
           (if e.weight = 0 then " [style=dashed]" else "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
