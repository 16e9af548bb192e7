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

(* Per-run state of the data-path check, over node ids: [mark.(id)]
   holds the current stamp for the members of the set under test,
   [seen.(id)] for the external inputs counted so far, so a fresh stamp
   empties both without clearing an array. The counts are the set's. *)
type marks = {
  mark : int array;
  seen : int array;
  mutable stamp : int;
  mutable members : int;
  mutable mults : int;
  mutable depth : int;
  mutable inputs : int;
}

let marks g =
  {
    mark = Array.make (G.id_bound g) 0;
    seen = Array.make (G.id_bound g) 0;
    stamp = 0;
    members = 0;
    mults = 0;
    depth = 0;
    inputs = 0;
  }

(* Longest path within the marked members below [id], counted in
   operations. *)
let rec member_depth g m id =
  if m.mark.(id) <> m.stamp then 0
  else begin
    let d = ref 0 in
    for port = 0 to G.arity_of g id - 1 do
      d := Int.max !d (member_depth g m (G.input g id port))
    done;
    1 + !d
  end

let rec mark_members g m = function
  | [] -> ()
  | id :: rest ->
    if m.mark.(id) <> m.stamp then begin
      m.mark.(id) <- m.stamp;
      m.members <- m.members + 1;
      if is_mult_class g id then m.mults <- m.mults + 1
    end;
    mark_members g m rest

let rec measure_members g m = function
  | [] -> ()
  | id :: rest ->
    m.depth <- Int.max m.depth (member_depth g m id);
    for port = 0 to G.arity_of g id - 1 do
      let input = G.input g id port in
      if m.mark.(input) <> m.stamp && m.seen.(input) <> m.stamp then begin
        m.seen.(input) <- m.stamp;
        m.inputs <- m.inputs + 1
      end
    done;
    measure_members g m rest

(* Counts [members] into [m]: operation count, multiplier-class count,
   internal depth and distinct external operands, without building a set
   or a list. *)
let measure g m members =
  m.stamp <- m.stamp + 1;
  m.members <- 0;
  m.mults <- 0;
  m.depth <- 0;
  m.inputs <- 0;
  mark_members g m members;
  measure_members g m members

(* Whether [members] fit one ALU. *)
let satisfies_caps g m (caps : Arch.alu_caps) members =
  measure g m members;
  m.members <= caps.Arch.max_ops
  && m.mults <= caps.Arch.max_multipliers
  && m.depth <= caps.Arch.max_depth
  && m.inputs <= caps.Arch.max_inputs

type proto = {
  p_ops : G.id list;  (** distinct, in no particular order *)
  p_root : G.id;
  mutable p_stores : G.id list;
  p_deletes : G.id list;
}

(* Shared context of the partitioning algorithms. *)
type ctx = {
  cg : G.t;
  topo : G.id list;
  topo_pos : int array;
  is_output : Bytes.t;  (** node id -> whether it is a named output *)
  marks : marks;
  versions : Legalize.versions;
}

let make_ctx g =
  Legalize.check g;
  let topo = G.topo_order g in
  let is_output = Bytes.make (G.id_bound g) '\000' in
  List.iter (fun (_, id) -> Bytes.set is_output id '\001') (G.outputs g);
  {
    cg = g;
    topo;
    topo_pos = topo_positions g topo;
    is_output;
    marks = marks g;
    versions = Legalize.versions g;
  }

(* Whether every data consumer of [p] satisfies [inside]. *)
let consumers_all g p inside =
  let all = ref true in
  G.iter_consumers g p (fun c _ -> if not (inside c) then all := false);
  !all

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
  let rec port_of input p = function
    | [] -> fail "operand %d of cluster %d is not a port" input c.cid
    | x :: rest -> if x = input then Job.Port p else port_of input (p + 1) rest
  in
  let arg_of input =
    if cluster_of.(input) = c.cid then Job.Node input
    else port_of input 0 c.cinputs
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
   in that order, as positions in [G.regions g]: one index per access,
   computed with the versions (an operand that is no access has none). *)
let region_touches versions clusters =
  let touched ids acc =
    List.fold_right
      (fun id acc ->
        let r = Legalize.region_index versions id in
        if r >= 0 then r :: acc else acc)
      ids acc
  in
  Array.map
    (fun c -> touched c.stores (touched c.deletes (touched c.cinputs [])))
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
        | Some root -> not (consumers_all g root (fun user -> cluster_of.(user) = c.cid)))
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
    region_touches = region_touches versions clusters;
  }

let make g clusters edges =
  Legalize.check g;
  build ~versions:(Legalize.versions g) g clusters edges (index g clusters)

(* Greedy data-path template partitioning (the paper's phase 1). Each
   growth absorbs, of the unclaimed value operands of its members, the
   one with the smallest id that fits. [growing.(id)] is the root of the
   growth that claimed [id], -1 while no growth has. *)
let unclaimed g growing id = is_value_op g id && growing.(id) < 0

(* the smallest unclaimed value operand of [members] above [floor] *)
let rec next_candidate g growing floor best = function
  | [] -> best
  | m :: rest ->
    let best = ref best in
    for port = 0 to G.arity_of g m - 1 do
      let input = G.input g m port in
      if input > floor && (!best < 0 || input < !best) && unclaimed g growing input
      then best := input
    done;
    next_candidate g growing floor !best rest

(* every data consumer of [p] is in the growth of [root] *)
let consumers_in g growing root p =
  let all = ref true in
  G.iter_consumers g p (fun c _ -> if growing.(c) <> root then all := false);
  !all

(* [p] joins the growth when its value is observable nowhere else: not a
   named output, every consumer a member; and the members still fit. *)
let rec absorb ctx caps growing root members floor =
  let g = ctx.cg in
  let p = next_candidate g growing floor (-1) members in
  if p < 0 then members
  else if
    Bytes.get ctx.is_output p = '\000'
    && consumers_in g growing root p
    && satisfies_caps g ctx.marks caps (p :: members)
  then begin
    growing.(p) <- root;
    absorb ctx caps growing root (p :: members) (-1)
  end
  else absorb ctx caps growing root members p

(* Growth starts from roots in reverse topo order, so consumers claim
   their producers first. *)
let partition_greedy ctx caps =
  let g = ctx.cg in
  let growing = Array.make (G.id_bound g) (-1) in
  List.fold_left
    (fun protos root ->
      if unclaimed g growing root then begin
        growing.(root) <- root;
        let members = absorb ctx caps growing root [ root ] (-1) in
        { p_ops = members; p_root = root; p_stores = []; p_deletes = [] } :: protos
      end
      else protos)
    [] (List.rev ctx.topo)

(* Sarkar-style edge zeroing: start from unit clusters and merge along data
   edges (in deterministic topological edge order) whenever the fused
   cluster still fits the ALU data path and keeps a single result. In the
   one-cycle-per-cluster model a legal merge never lengthens the critical
   path, so Sarkar's completion-time guard reduces to the cap check. *)
let partition_sarkar ctx caps =
  let g = ctx.cg in
  let n = G.id_bound g in
  let topo_pos = ctx.topo_pos in
  let by_pos = Array.of_list ctx.topo in
  (* union-find over value ops: [parent] links, and at each
     representative its members. A merge keeps the consumer's
     representative, so a representative is its cluster's root. *)
  let parent = Array.init n Fun.id in
  let members = Array.make n [] in
  G.iter_ids g (fun id -> if is_value_op g id then members.(id) <- [ id ]);
  let rec find id =
    let p = parent.(id) in
    if p = id then id
    else begin
      let root = find p in
      parent.(id) <- root;
      root
    end
  in
  (* data edges between value ops, each once, by (producer, consumer)
     topo position *)
  let width = Array.length by_pos in
  let keys = ref [] in
  G.iter_ids g (fun v ->
      if is_value_op g v then
        G.iter_consumers g v (fun u _ ->
            if is_value_op g u then
              keys := (topo_pos.(v) * width) + topo_pos.(u) :: !keys));
  let keys = List.sort_uniq Int.compare !keys in
  List.iter
    (fun key ->
      let v = by_pos.(key / width) and u = by_pos.(key mod width) in
      let cv = find v and cu = find u in
      if cv <> cu then begin
        let inside user =
          is_value_op g user
          && let c = find user in
             c = cu || c = cv
        in
        let merged = List.rev_append members.(cv) members.(cu) in
        if
          Bytes.get ctx.is_output cv = '\000'
          && consumers_all g cv inside
          && satisfies_caps g ctx.marks caps merged
        then begin
          parent.(cv) <- cu;
          members.(cu) <- merged
        end
      end)
    keys;
  let protos = ref [] in
  for id = n - 1 downto 0 do
    if G.mem g id && is_value_op g id && find id = id then
      protos :=
        { p_ops = members.(id); p_root = id; p_stores = []; p_deletes = [] }
        :: !protos
  done;
  !protos

(* Kahn's algorithm over cluster edges: which of [n] clusters are reached
   from the sources without passing through a cycle. The successors are
   packed by source ([succ.(start.(c) .. start.(c + 1) - 1)]) and the
   queue is an array, since each cluster enters it at most once. *)
let kahn n edges =
  let indeg = Array.make n 0 and start = Array.make (n + 1) 0 in
  (* an edge from outside the clusters is never released *)
  let inside e = e.src >= 0 && e.src < n in
  List.iter
    (fun e ->
      indeg.(e.dst) <- indeg.(e.dst) + 1;
      if inside e then start.(e.src + 1) <- start.(e.src + 1) + 1)
    edges;
  for c = 1 to n do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let succ = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  List.iter
    (fun e ->
      if inside e then begin
        succ.(fill.(e.src)) <- e.dst;
        fill.(e.src) <- fill.(e.src) + 1
      end)
    edges;
  let queue = Array.make n 0 and tail = ref 0 in
  let push c =
    queue.(!tail) <- c;
    incr tail
  in
  Array.iteri (fun c d -> if d = 0 then push c) indeg;
  let seen = Array.make n false in
  let head = ref 0 in
  while !head < !tail do
    let c = queue.(!head) in
    incr head;
    seen.(c) <- true;
    for j = start.(c) to start.(c + 1) - 1 do
      let dst = succ.(j) in
      indeg.(dst) <- indeg.(dst) - 1;
      if indeg.(dst) = 0 then push dst
    done
  done;
  seen

(* Attaches stores/deletes, numbers clusters and derives dependence edges
   from a value-op partition. *)
let rec assemble ctx ~detached value_protos =
  let g = ctx.cg in
  let topo_pos = ctx.topo_pos in
  List.iter (fun p -> p.p_stores <- []) value_protos;
  let protos : proto list ref = ref value_protos in
  (* Attach stores: a store joins the cluster producing its value; a store
     of a constant or fetched value gets a pass-through cluster (shared per
     source). *)
  let proto_of_op = Array.make (G.id_bound g) None in
  List.iter
    (fun p -> List.iter (fun id -> proto_of_op.(id) <- Some p) p.p_ops)
    !protos;
  (* One store per cluster. A second store of the same value must not join
     the producing cluster: two multi-store clusters can hold interleaved
     positions of one token chain and deadlock the level schedule. The
     extra stores become pass-through clusters that re-emit the value. *)
  let attach_store st value =
    let fresh_passthrough () =
      let p = { p_ops = []; p_root = value; p_stores = [ st ]; p_deletes = [] } in
      protos := p :: !protos
    in
    if List.mem st detached then fresh_passthrough ()
    else
      match proto_of_op.(value) with
      | Some p ->
        if p.p_root <> value then
          errorf "store %d reads interior node %d of a cluster" st value;
        if p.p_stores = [] then p.p_stores <- [ st ] else fresh_passthrough ()
      | None -> fresh_passthrough ()
  in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.St _ -> attach_store id (G.input g id 2)
      | G.Del _ ->
        protos :=
          { p_ops = []; p_root = id; p_stores = []; p_deletes = [ id ] } :: !protos
      | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Ss_out _
      | G.Fe _ ->
        ());
  (* Deterministic numbering: by minimum topo position over all attached
     nodes, ties in list order (pass-through clusters of one fetched
     value share their position): one bucket per position. *)
  let position p =
    let pos = ref max_int in
    let see id = if topo_pos.(id) >= 0 then pos := Int.min !pos topo_pos.(id) in
    List.iter see p.p_ops;
    List.iter see p.p_stores;
    List.iter see p.p_deletes;
    if p.p_ops = [] then see p.p_root;
    !pos
  in
  let buckets = Array.make (G.node_count g) [] in
  let n =
    List.fold_left
      (fun n p ->
        let at = position p in
        buckets.(at) <- p :: buckets.(at);
        n + 1)
      0 !protos
  in
  let ordered =
    Array.make n { p_ops = []; p_root = -1; p_stores = []; p_deletes = [] }
  in
  let next = ref 0 in
  Array.iter
    (fun bucket ->
      List.iter
        (fun p ->
          ordered.(!next) <- p;
          incr next)
        (List.rev bucket))
    buckets;
  let cluster_of = Array.make (G.id_bound g) (-1) in
  Array.iteri
    (fun cid p ->
      List.iter (fun id -> cluster_of.(id) <- cid) p.p_ops;
      List.iter (fun id -> cluster_of.(id) <- cid) p.p_stores;
      List.iter (fun id -> cluster_of.(id) <- cid) p.p_deletes)
    ordered;
  (* every cluster's ops in topo order, from one walk of the order *)
  let ops = Array.make n [] in
  List.iter
    (fun id ->
      if is_value_op g id then
        let cid = cluster_of.(id) in
        ops.(cid) <- id :: ops.(cid))
    (List.rev ctx.topo);
  (* distinct external operands in first-use order (members in topo
     order, ports left to right); operands are values, so an operand is a
     member exactly when it is listed under the cluster *)
  let seen = Array.make (G.id_bound g) (-1) in
  let external_inputs cid =
    let acc = ref [] in
    List.iter
      (fun m ->
        for port = 0 to G.arity_of g m - 1 do
          let input = G.input g m port in
          if cluster_of.(input) <> cid && seen.(input) <> cid then begin
            seen.(input) <- cid;
            acc := input :: !acc
          end
        done)
      ops.(cid);
    List.rev !acc
  in
  let clusters =
    Array.mapi
      (fun cid p ->
        let root =
          if p.p_deletes <> [] && p.p_ops = [] then None else Some p.p_root
        in
        let cinputs =
          if ops.(cid) <> [] then external_inputs cid
          else match root with Some v -> [ v ] | None -> []
        in
        { cid; ops = ops.(cid); root; stores = p.p_stores; deletes = p.p_deletes;
          cinputs })
      ordered
  in
  (* Dependency edges, per destination: [into.(dst)] holds (src, weight),
     [succ.(src)] the destinations, for the cycle checks below. *)
  let into = Array.make n [] and succ = Array.make n [] in
  let rec has_src src = function
    | [] -> false
    | (s, _) :: rest -> s = src || has_src src rest
  and has_dst dst = function [] -> false | d :: rest -> d = dst || has_dst dst rest in
  let link src dst weight =
    into.(dst) <- (src, weight) :: into.(dst);
    succ.(src) <- dst :: succ.(src)
  in
  let add_edge src dst =
    if src <> dst && not (has_src src into.(dst)) then link src dst 1
  in
  (* Links [dst_cid] after the cluster of the store/delete that made the
     version of the cell an access interacts with. Stores to other cells of
     the region are temporally independent: their write-backs are ordered
     per cell by the allocator, so they impose no level constraint. *)
  let version_edge access dst_cid =
    match Legalize.latest_version ctx.versions access with
    | Some m ->
      let src = cluster_of.(m) in
      if src >= 0 then add_edge src dst_cid
      else errorf "unclustered store/delete %d" m
    | None -> ()
  in
  let input_edges dst_cid input =
    match G.kind g input with
    | G.Binop _ | G.Unop _ | G.Mux ->
      let src = cluster_of.(input) in
      if src >= 0 then add_edge src dst_cid
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
     fetch's consumers no later than the overwriting cluster: a weight-0
     edge, a scheduling preference rather than a dataflow constraint.
     When the reader also consumes the overwriting cluster's value, the
     preference would close a cycle: it is skipped, and the allocator
     guarantees read-before-overwrite with a move deadline instead.
     Candidates are tried by fetch, ascending, and per fetch by consumer,
     descending; each sees the hard edges and the soft edges taken so
     far. *)
  let visited = Array.make n (-1) in
  let rec reaches stamp goal node =
    node = goal
    || visited.(node) <> stamp
       && begin
            visited.(node) <- stamp;
            List.exists (reaches stamp goal) succ.(node)
          end
  in
  let tries = ref 0 in
  let soft_edge dst src =
    if src >= 0 && src <> dst && not (has_dst dst succ.(src)) then begin
      incr tries;
      if not (reaches !tries src dst) then link src dst 0
    end
  in
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Fe _ -> (
        match Legalize.overwriter ctx.versions id with
        | Some overwriter when cluster_of.(overwriter) >= 0 ->
          let users = ref [] in
          G.iter_consumers g id (fun user _ -> users := user :: !users);
          List.iter
            (fun user -> soft_edge cluster_of.(overwriter) cluster_of.(user))
            !users
        | Some _ | None -> ())
      | _ -> ());
  (* sorted by (src, dst): bucketed by source in descending destination
     order, so each source's edges come out ascending *)
  let out = Array.make n [] in
  for dst = n - 1 downto 0 do
    List.iter (fun (src, weight) -> out.(src) <- { src; dst; weight } :: out.(src)) into.(dst)
  done;
  let edges = List.concat (Array.to_list out) in
  (* A store fused into the cluster producing its value can close a cycle:
     the store's same-cell version edge points in while the root's data
     edges point out. Every cycle must traverse such a fused store (data
     edges alone mirror the acyclic node graph and the per-cell version
     edges alone form chains), so detaching one store per round into a
     pass-through cluster and reassembling terminates and converges to an
     acyclic cluster DAG. *)
  let seen = kahn n edges in
  let rec first_fused cid =
    if cid >= n then None
    else if (not seen.(cid)) && clusters.(cid).ops <> [] && clusters.(cid).stores <> []
    then Some cid
    else first_fused (cid + 1)
  in
  match first_fused 0 with
  | None when Array.for_all Fun.id seen ->
    build ~versions:ctx.versions g clusters edges cluster_of
  | None -> errorf "cluster dependence graph has an irreducible cycle"
  | Some cid -> (
    match clusters.(cid).stores with
    | st :: _ -> assemble ctx ~detached:(st :: detached) value_protos
    | [] -> assert false)

let c_clusters = Fpfa_obs.Obs.counter "cluster.clusters"
let c_edges = Fpfa_obs.Obs.counter "cluster.edges"

let tally t =
  Fpfa_obs.Obs.add c_clusters (Array.length t.clusters);
  Fpfa_obs.Obs.add c_edges (List.length t.edges);
  t

let run ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx ~detached:[] (partition_greedy ctx caps))

let sarkar ?(caps = Arch.paper_alu) g =
  let ctx = make_ctx g in
  tally (assemble ctx ~detached:[] (partition_sarkar ctx caps))

let unit_clusters g = run ~caps:Arch.unit_alu g

let inputs_of c = c.cinputs

(* {2 Legality}

   One checker states every clustering rule; [validate] raises its first
   finding and [fpfa_map check] reports them all. The data-path counts
   reuse the partitioners' marks and the coverage rule one flag per node,
   so a legal clustering costs one measurement per cluster and one scan
   of the graph. *)

module D = Fpfa_diag.Diag

let rec all_live g = function
  | [] -> true
  | id :: rest -> G.mem g id && all_live g rest

(* Flags each of [ids] whose [cluster_of] entry names [cid]. *)
let rec mark_owned owned cluster_of cid = function
  | [] -> ()
  | id :: rest ->
    if id >= 0 && id < Bytes.length owned && cluster_of.(id) = cid then
      Bytes.unsafe_set owned id '\001';
    mark_owned owned cluster_of cid rest

let check_diags t (caps : Arch.alu_caps) =
  let g = t.graph in
  let m = marks g in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let nclusters = Array.length t.clusters in
  (* [owned.(id)]: the cluster [cluster_of] names for [id] lists it. *)
  let owned = Bytes.make (Array.length t.cluster_of) '\000' in
  Array.iter
    (fun c ->
      let cid = c.cid in
      mark_owned owned t.cluster_of cid c.ops;
      mark_owned owned t.cluster_of cid c.stores;
      mark_owned owned t.cluster_of cid c.deletes;
      mark_owned owned t.cluster_of cid (Option.to_list c.root);
      (match (c.ops, c.root, c.deletes) with
      | [], None, [] ->
        add (D.error ~node:cid "cluster.empty" "cluster %d is empty" cid)
      | _ -> ());
      let live = all_live g c.ops in
      if live then measure g m c.ops;
      (* The measurement counts each op once: an op listed twice makes
         the node <-> cluster map ambiguous. *)
      let n_ops = List.length c.ops in
      if live && m.members < n_ops then
        add
          (D.error ~node:cid "cluster.coverage"
             "cluster %d lists an operation more than once" cid);
      (* Operands are counted as recorded and as recounted from the
         member ops; the larger count must fit the ALU's input ports. *)
      let inputs =
        Int.max (List.length c.cinputs) (if live then m.inputs else 0)
      in
      if inputs > caps.Arch.max_inputs then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d reads %d distinct operands (ALU has %d input ports)"
             cid inputs caps.Arch.max_inputs);
      if n_ops > caps.Arch.max_ops then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d fuses %d operations (data path allows %d)" cid n_ops
             caps.Arch.max_ops);
      if live && m.mults > caps.Arch.max_multipliers then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d uses %d multiplier-class operations (data path has \
              %d)"
             cid m.mults caps.Arch.max_multipliers);
      if live && m.depth > caps.Arch.max_depth then
        add
          (D.error ~node:cid "cluster.datapath"
             "cluster %d chains %d operation levels (data path allows %d)" cid
             m.depth caps.Arch.max_depth);
      if not live then
        List.iter
          (fun id ->
            if not (G.mem g id) then
              add
                (D.error ~node:cid "cluster.coverage"
                   "cluster %d lists removed node %d" cid id))
          c.ops;
      match c.root with
      | Some r when not (G.mem g r) ->
        add
          (D.error ~node:cid "cluster.coverage"
             "cluster %d roots at removed node %d" cid r)
      | Some r when c.ops <> [] && live && m.mark.(r) <> m.stamp ->
        add
          (D.error ~node:cid "cluster.coverage"
             "cluster %d roots at node %d, which is not a member op" cid r)
      | Some _ | None -> ())
    t.clusters;
  (* Node <-> cluster map consistency, both directions: every clusterable
     node maps to a cluster, and that cluster lists it. *)
  G.iter_ids g (fun id ->
      match G.kind g id with
      | G.Binop _ | G.Unop _ | G.Mux | G.St _ | G.Del _ ->
        let cid =
          if id < Array.length t.cluster_of then t.cluster_of.(id) else -1
        in
        if cid < 0 then
          add
            (D.error ~node:id "cluster.coverage"
               "node %d belongs to no cluster" id)
        else if Bytes.get owned id = '\000' then
          add
            (D.error ~node:id "cluster.coverage"
               "node %d maps to cluster %d, which does not list it" id cid)
      | G.Const _ | G.Ss_in _ | G.Ss_out _ | G.Fe _ -> ());
  (* The dependence relation must be a DAG whatever the weights: a
     weight-0 cycle would need two clusters of one level to precede each
     other. *)
  let stray =
    List.fold_left
      (fun stray e ->
        if e.src >= 0 && e.src < nclusters && e.dst >= 0 && e.dst < nclusters
        then stray
        else begin
          add
            (D.error "cluster.coverage"
               "edge %d -> %d references a cluster out of range" e.src e.dst);
          stray + 1
        end)
      0 t.edges
  in
  if stray = 0 then begin
    let unreached =
      Array.fold_left
        (fun n seen -> if seen then n else n + 1)
        0 (kahn nclusters t.edges)
    in
    if unreached > 0 then
      add
        (D.error "cluster.cycle"
           "cluster dependence relation has a cycle (%d of %d clusters \
            unreachable from sources)"
           unreached nclusters)
  end;
  List.rev !diags

let validate t caps =
  match check_diags t caps with
  | [] -> ()
  | d :: _ -> raise (Clustering_error d.D.message)

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
