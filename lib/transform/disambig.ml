module G = Cdfg.Graph
module Obs = Fpfa_obs.Obs

(* Memory-order disambiguation: remove anti-dependence order edges that an
   address oracle proves unnecessary.

   The builder is maximally conservative: [Builder.advance_token] orders
   every new writer (St/Del) of a region after *all* pending fetches of
   the previous token version, even when the addresses can never collide.
   This module re-derives, per fetch, the minimal set of writers the fetch
   must precede and edits the order edges to match:

   - an edge to a writer the oracle proves [Disjoint] is deleted — if a
     writer farther down the token chain may still alias the fetch, the
     edge is retargeted to the first such writer (the constraint the
     deleted edge used to imply transitively);
   - an edge whose constraint is already implied by a pure data path from
     the fetch to the writer (e.g. the fetch feeding the mux of a guarded
     store) is dead and deleted;
   - everything else is kept.

   The oracle lives on the analysis side (Fpfa_analysis.Addr); this module
   only consumes it, which keeps the library layering acyclic. *)

type relation = Disjoint | Must_alias | May_alias
type oracle = G.id -> G.id -> relation

type report = {
  fetches : int;  (** fetches of token-threaded regions examined *)
  order_edges_before : int;  (** all order edges in the graph, before *)
  order_edges_after : int;
  removed : int;  (** anti-dependence edges deleted *)
  retargeted : int;  (** edges added to a farther aliasing writer *)
  kept_alias : int;  (** edges kept because the addresses must collide *)
  kept_unknown : int;  (** edges kept because the oracle cannot decide *)
}

let empty_report =
  {
    fetches = 0;
    order_edges_before = 0;
    order_edges_after = 0;
    removed = 0;
    retargeted = 0;
    kept_alias = 0;
    kept_unknown = 0;
  }

let merge_report a b =
  {
    fetches = a.fetches + b.fetches;
    order_edges_before =
      (if a.order_edges_before = 0 then b.order_edges_before
       else a.order_edges_before);
    order_edges_after = b.order_edges_after;
    removed = a.removed + b.removed;
    retargeted = a.retargeted + b.retargeted;
    kept_alias = a.kept_alias + b.kept_alias;
    kept_unknown = a.kept_unknown + b.kept_unknown;
  }

let c_removed = Obs.counter "disambig.removed"
let c_retargeted = Obs.counter "disambig.retargeted"
let c_kept_unknown = Obs.counter "disambig.kept-unknown"
let c_edges_before = Obs.counter "disambig.order-edges-before"
let c_edges_after = Obs.counter "disambig.order-edges-after"

let order_edge_count g =
  G.fold g ~init:0 ~f:(fun acc n -> acc + List.length n.G.order_after)

let writer_of_region region kind =
  match kind with
  | G.St r | G.Del r -> String.equal r region
  | _ -> false

(* Token version -> the writers consuming it (at port 0). The walk below
   visits O(token-chain length) versions per fetch; resolving each step
   through the graph's consumer index costs a fold-and-sort every time,
   which dominates pruning on long store chains. Callers that examine
   many fetches should build this once and pass it in. *)
type writer_index = (G.id, G.id list) Hashtbl.t

let writer_index g : writer_index =
  let tbl = Hashtbl.create 64 in
  G.iter g (fun n ->
      match n.G.kind with
      | (G.St _ | G.Del _) when Array.length n.G.inputs > 0 ->
        let tok = n.G.inputs.(0) in
        let prev =
          match Hashtbl.find_opt tbl tok with Some l -> l | None -> []
        in
        Hashtbl.replace tbl tok (n.G.id :: prev)
      | _ -> ());
  tbl

(* The writers the fetch must stay ordered before: walk the token chain
   downstream from the fetch's own token version; a writer the oracle
   proves disjoint is stepped over (recursing into the version it
   produces), the first possibly-aliasing writer on each branch is
   collected and the walk stops there — later writers are ordered after it
   by the token chain itself. *)
let needed_writers ?index ~oracle g f =
  let region =
    match G.kind g f with
    | G.Fe r -> r
    | _ -> invalid_arg "Disambig.needed_writers: not a fetch"
  in
  let index = match index with Some i -> i | None -> writer_index g in
  let visited = Hashtbl.create 8 in
  let needed = ref [] in
  let rec walk token =
    if not (Hashtbl.mem visited token) then begin
      Hashtbl.add visited token ();
      match Hashtbl.find_opt index token with
      | None -> ()
      | Some writers ->
        List.iter
          (fun c ->
            if writer_of_region region (G.kind g c) then
              match oracle f c with
              | Disjoint -> walk c
              | rel ->
                if not (List.mem_assoc c !needed) then
                  needed := (c, rel) :: !needed)
          writers
    end
  in
  walk (G.node g f).G.inputs.(0);
  !needed

(* Data-only reachability (order edges excluded). Used to detect
   constraints already implied by a value path — pruning never touches
   data edges, so these implications cannot be invalidated by the edits
   of the same run.

   Each fetch only ever asks about a handful of writers, so a full
   transitive closure (quadratic in time and memory on long token
   chains) is waste; instead, one DFS per queried fetch over dense
   adjacency arrays marks its data cone, and membership is an array
   read. *)
type data_reach = {
  bound : int;  (** exclusive upper bound on node ids *)
  preds : G.id array array;  (** data inputs, indexed by id *)
  succs : G.id list array;  (** data consumers, indexed by id *)
}

let data_reach g =
  let bound = 1 + G.fold g ~init:(-1) ~f:(fun acc n -> max acc n.G.id) in
  let preds = Array.make bound [||] in
  let succs = Array.make bound [] in
  G.iter g (fun n ->
      preds.(n.G.id) <- n.G.inputs;
      Array.iter (fun i -> succs.(i) <- n.G.id :: succs.(i)) n.G.inputs);
  { bound; preds; succs }

(* [cone r ~forward src] marks everything data-reachable from [src] and
   returns the membership test. *)
let cone r ~forward src =
  let seen = Bytes.make r.bound '\000' in
  let rec visit id =
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      if forward then List.iter visit r.succs.(id)
      else Array.iter visit r.preds.(id)
    end
  in
  visit src;
  fun id -> id < r.bound && Bytes.get seen id = '\001'

type decision = {
  fetch : G.id;
  drop : G.id list;  (** writers whose edge from [fetch] is deleted *)
  link : G.id list;  (** writers gaining an edge after [fetch] *)
  d_kept_alias : int;
  d_kept_unknown : int;
}

let decide ~oracle ~index g reach f =
  let region = match G.kind g f with G.Fe r -> r | _ -> assert false in
  let needed = needed_writers ~index ~oracle g f in
  let existing =
    List.filter (fun w -> writer_of_region region (G.kind g w))
      (G.order_successors g f)
  in
  (* both cones are computed at most once per fetch, and only for fetches
     that actually have edges or needed writers to examine *)
  let descendants = lazy (cone reach ~forward:true f) in
  let ancestors_of_f = lazy (cone reach ~forward:false f) in
  let implied w = (Lazy.force descendants) w in
  let drop = ref [] and link = ref [] in
  let kept_alias = ref 0 and kept_unknown = ref 0 in
  List.iter
    (fun w ->
      match List.assoc_opt w needed with
      | None ->
        (* Disjoint (the walk stepped over it) or not on the fetch's token
           chain at all; either way the constraint serves no aliasing
           writer reachable from this fetch's version. Any farther
           aliasing writer is in [needed] and handled below. *)
        drop := w :: !drop
      | Some _ when implied w ->
        (* a value path fetch -> writer already forces the order *)
        drop := w :: !drop
      | Some Must_alias -> incr kept_alias
      | Some (May_alias | Disjoint) -> incr kept_unknown)
    existing;
  List.iter
    (fun (w, _) ->
      if (not (List.mem w existing)) && not (implied w) then
        (* The constraint used to be implied transitively through an edge
           deleted above (fetch -> disjoint writer -> token chain -> w):
           re-materialise it directly. Never fires when the walk's first
           writer already carries the edge. *)
        if (Lazy.force ancestors_of_f) w then
          (* the writer computes an input of the fetch, so the hardware
             executes it first regardless; an order edge would be a cycle *)
          ()
        else link := w :: !link)
    needed;
  {
    fetch = f;
    drop = !drop;
    link = !link;
    d_kept_alias = !kept_alias;
    d_kept_unknown = !kept_unknown;
  }

let prune ?verify ~oracle g =
  Obs.span ~cat:"transform" "disambig"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  let before = order_edge_count g in
  let reach = data_reach g in
  let index = writer_index g in
  let fetches =
    List.filter (fun id -> match G.kind g id with G.Fe _ -> true | _ -> false)
      (G.node_ids g)
  in
  (* All decisions are made against the pre-edit graph (the oracle, the
     token chains and the data cones are untouched by order-edge edits),
     then applied in one batch. *)
  let decisions = List.map (decide ~oracle ~index g reach) fetches in
  let touched = ref G.Id_set.empty in
  let removed = ref 0 and retargeted = ref 0 in
  let kept_alias = ref 0 and kept_unknown = ref 0 in
  List.iter
    (fun d ->
      List.iter
        (fun w ->
          G.remove_order g w ~after:d.fetch;
          incr removed;
          touched := G.Id_set.add w (G.Id_set.add d.fetch !touched))
        d.drop;
      List.iter
        (fun w ->
          G.add_order g w ~after:d.fetch;
          incr retargeted;
          touched := G.Id_set.add w (G.Id_set.add d.fetch !touched))
        d.link;
      kept_alias := !kept_alias + d.d_kept_alias;
      kept_unknown := !kept_unknown + d.d_kept_unknown)
    decisions;
  let after = order_edge_count g in
  Obs.add c_removed !removed;
  Obs.add c_retargeted !retargeted;
  Obs.add c_kept_unknown !kept_unknown;
  Obs.add c_edges_before before;
  Obs.add c_edges_after after;
  (match verify with
  | Some hook when not (G.Id_set.is_empty !touched) -> (
    try hook "disambig" g !touched
    with e -> raise (Pass.Verification_failed { rule = "disambig"; error = e }))
  | _ -> ());
  {
    fetches = List.length fetches;
    order_edges_before = before;
    order_edges_after = after;
    removed = !removed;
    retargeted = !retargeted;
    kept_alias = !kept_alias;
    kept_unknown = !kept_unknown;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%d fetch(es) examined, %d -> %d order edges@,\
     %d removed (%d retargeted), kept: %d must-alias, %d unknown@]"
    r.fetches r.order_edges_before r.order_edges_after r.removed r.retargeted
    r.kept_alias r.kept_unknown
