module Obs = Fpfa_obs.Obs
module D = Fpfa_diag.Diag

type t = {
  clustering : Cluster.t;
  level_of : int array;
  levels : int list array;
  asap : int array;
  alap : int array;
}

(* Scheduler tallies for `--stats` (inert until Obs.enable). *)
let c_displacements = Obs.counter "sched.displacements"
let c_levels = Obs.counter "sched.levels"
let c_levels_inserted = Obs.counter "sched.levels_inserted"

exception Scheduling_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Scheduling_error msg)) fmt

let uses_alu (c : Cluster.cluster) =
  match c.Cluster.root with Some _ -> true | None -> false

(* Adjacency arrays: the paper's linearity claim holds only when edges are
   scanned once, not per cluster. *)
let adjacency (clustering : Cluster.t) =
  let n = Array.length clustering.Cluster.clusters in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun (e : Cluster.edge) ->
      succs.(e.Cluster.src) <- (e.Cluster.dst, e.Cluster.weight) :: succs.(e.Cluster.src);
      preds.(e.Cluster.dst) <- (e.Cluster.src, e.Cluster.weight) :: preds.(e.Cluster.dst))
    clustering.Cluster.edges;
  (preds, succs)

(* Longest-path levels assuming unbounded ALUs. *)
let compute_asap (clustering : Cluster.t) ~succs =
  let n = Array.length clustering.Cluster.clusters in
  let asap = Array.make n 0 in
  let indeg = Array.make n 0 in
  Array.iter
    (List.iter (fun (dst, _) -> indeg.(dst) <- indeg.(dst) + 1))
    succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    incr processed;
    List.iter
      (fun (dst, weight) ->
        asap.(dst) <- max asap.(dst) (asap.(c) + weight);
        indeg.(dst) <- indeg.(dst) - 1;
        if indeg.(dst) = 0 then Queue.add dst queue)
      succs.(c)
  done;
  if !processed <> n then errorf "cluster graph has a cycle";
  asap

let compute_alap (clustering : Cluster.t) ~preds ~horizon =
  let n = Array.length clustering.Cluster.clusters in
  let alap = Array.make n horizon in
  let outdeg = Array.make n 0 in
  Array.iter
    (List.iter (fun (src, _) -> outdeg.(src) <- outdeg.(src) + 1))
    preds;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) outdeg;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    List.iter
      (fun (src, weight) ->
        alap.(src) <- min alap.(src) (alap.(c) - weight);
        outdeg.(src) <- outdeg.(src) - 1;
        if outdeg.(src) = 0 then Queue.add src queue)
      preds.(c)
  done;
  alap

type priority = Mobility | Alap_first | Cid_order

(* ALU clusters waiting for a level, as (priority key, cid): the minimum is
   the next winner. *)
module Waiting = Set.Make (struct
  type t = int * int

  let compare (k1, c1) (k2, c2) =
    match Int.compare k1 k2 with 0 -> Int.compare c1 c2 | c -> c
end)

let run ?(alu_count = 5) ?(priority = Mobility) (clustering : Cluster.t) =
  if alu_count <= 0 then errorf "alu_count must be positive";
  let clusters = clustering.Cluster.clusters in
  let n = Array.length clusters in
  let preds, succs = adjacency clustering in
  let asap = compute_asap clustering ~succs in
  let horizon = Array.fold_left max 0 asap in
  let alap = compute_alap clustering ~preds ~horizon in
  let level_of = Array.make n (-1) in
  (* Contended levels go to the highest-priority clusters; the paper plays
     the critical path (least mobility) first. Ties go to the lower cid. *)
  let key =
    Array.init n (fun cid ->
        match priority with
        | Mobility -> alap.(cid) - asap.(cid)
        | Alap_first -> alap.(cid)
        | Cid_order -> 0)
  in
  let by_priority a b =
    match Int.compare key.(a) key.(b) with 0 -> Int.compare a b | c -> c
  in
  (* Clusters become ready once all predecessors are placed; their earliest
     feasible level is then fixed, so newly ready clusters are bucketed by
     level. ALU clusters that lose a contended level wait in an ordered
     set until they win one, so each cluster enters and leaves it once:
     O((clusters + edges) log clusters). *)
  let unplaced_preds = Array.map List.length preds in
  let earliest cid =
    List.fold_left
      (fun acc (src, weight) -> max acc (level_of.(src) + weight))
      0 preds.(cid)
  in
  let max_level = (2 * n) + horizon + 2 in
  let max_weight =
    List.fold_left
      (fun acc (e : Cluster.edge) -> max acc e.Cluster.weight)
      0 clustering.Cluster.edges
  in
  (* a cluster readies at most [max_weight] levels below the current one *)
  let buckets = Array.make (max_level + max_weight + 1) [] in
  let push cid lvl = buckets.(lvl) <- cid :: buckets.(lvl) in
  Array.iteri (fun cid d -> if d = 0 then push cid 0) unplaced_preds;
  let waiting = ref Waiting.empty and waiting_count = ref 0 in
  let remaining = ref n in
  (* filled in place: an array made from a list of more than 256 young
     levels would first empty the minor heap *)
  let levels = Array.make (max_level + 1) [] in
  let level = ref 0 in
  while !remaining > 0 do
    if !level > max_level then
      errorf "scheduler failed to place all clusters (internal error)";
    let this_level = ref [] in
    let alus_used = ref 0 in
    let place cid =
      level_of.(cid) <- !level;
      this_level := cid :: !this_level;
      if uses_alu clusters.(cid) then incr alus_used;
      decr remaining;
      List.iter
        (fun (dst, _) ->
          unplaced_preds.(dst) <- unplaced_preds.(dst) - 1;
          if unplaced_preds.(dst) = 0 then push dst (max (earliest dst) !level))
        succs.(cid)
    in
    (* Sweep the current bucket; placements can ready weight-0 successors
       for this same level, which re-fills the bucket. Each sweep places
       every memory-only cluster and as many of the best waiting ALU
       clusters as there are free ALUs, in priority order. Once a level is
       full, later sweeps only add to the waiting set. *)
    let rec sweeps () =
      let fresh = buckets.(!level) in
      buckets.(!level) <- [];
      let alu, memory_only = List.partition (fun cid -> uses_alu clusters.(cid)) fresh in
      List.iter (fun cid -> waiting := Waiting.add (key.(cid), cid) !waiting) alu;
      waiting_count := !waiting_count + List.length alu;
      let rec pop k =
        if k = 0 || !waiting_count = 0 then []
        else begin
          let ((_, cid) as best) = Waiting.min_elt !waiting in
          waiting := Waiting.remove best !waiting;
          decr waiting_count;
          cid :: pop (k - 1)
        end
      in
      let winners = pop (alu_count - !alus_used) in
      if fresh <> [] || winners <> [] then begin
        List.iter place
          (List.merge by_priority winners (List.sort by_priority memory_only));
        sweeps ()
      end
    in
    sweeps ();
    (* Every ALU cluster still waiting lost this level (paper Fig. 4: a
       new level is inserted for it). *)
    Obs.add c_displacements !waiting_count;
    levels.(!level) <- List.rev !this_level;
    incr level
  done;
  (* Trim trailing empty levels. *)
  let rec used count =
    if count = 0 then 0
    else match levels.(count - 1) with [] -> used (count - 1) | _ -> count
  in
  let count = used !level in
  (* record_max, not set: a parallel corpus batch must report the same
     value as a sequential one, and last-writer-wins is not
     deterministic across domains. *)
  Obs.record_max c_levels count;
  Obs.add c_levels_inserted (max 0 (count - (horizon + 1)));
  { clustering; level_of; levels = Array.sub levels 0 count; asap; alap }

let level_count t = Array.length t.levels

let critical_path_levels t = Array.fold_left max 0 t.asap + 1

let mobility t cid = t.alap.(cid) - t.asap.(cid)

(* The level of a cluster placed inside the schedule, else -1. *)
let[@inline] placed_level t cid =
  if cid < 0 || cid >= Array.length t.level_of then -1
  else
    let lvl = t.level_of.(cid) in
    if lvl >= 0 && lvl < Array.length t.levels then lvl else -1

(* One checker states every scheduling rule; [validate] raises its first
   finding and [fpfa_map check] reports them all. It makes one pass over
   the levels, one over the clusters and one over the edges, and lists
   the findings by rule: placement, dependence, capacity, then the
   mobility window. *)
let check_diags t ~alu_count =
  let clusters = t.clustering.Cluster.clusters in
  let nclusters = Array.length clusters in
  let unplaced = ref [] and misplaced = ref [] and dependence = ref []
  and capacity = ref [] and window = ref [] in
  let add l d = l := d :: !l in
  (* Per level: the clusters it lists are placed there (counted in
     [listed]), and its ALU clusters fit the tile. *)
  let listed = Array.make (Array.length t.level_of) 0 in
  Array.iteri
    (fun lvl cids ->
      let alus =
        List.fold_left
          (fun alus cid ->
            if cid >= 0 && cid < Array.length t.level_of then
              if t.level_of.(cid) = lvl then listed.(cid) <- listed.(cid) + 1
              else
                add misplaced
                  (D.error ~node:cid "sched.unplaced"
                     "level %d lists cluster %d, which is placed at level %d"
                     lvl cid t.level_of.(cid));
            if cid >= 0 && cid < nclusters && uses_alu clusters.(cid) then
              alus + 1
            else alus)
          0 cids
      in
      if alus > alu_count then
        add capacity
          (D.error ~node:lvl "sched.capacity"
             "level %d runs %d ALU clusters on a %d-ALU tile" lvl alus
             alu_count))
    t.levels;
  (* Per cluster: a level, listed once there, inside its mobility window.
     ASAP is a hard lower bound; ALAP shifts down by the slack the
     scheduler inserted for capacity overflows. *)
  let slack = Int.max 0 (Array.length t.levels - critical_path_levels t) in
  for cid = 0 to nclusters - 1 do
    let lvl = placed_level t cid in
    if lvl < 0 then
      add unplaced
        (D.error ~node:cid "sched.unplaced"
           "cluster %d has no level inside the schedule" cid)
    else begin
      if listed.(cid) <> 1 then
        add unplaced
          (D.error ~node:cid "sched.unplaced"
             "cluster %d appears %d times in its level's placement list" cid
             listed.(cid));
      if cid < Array.length t.asap && cid < Array.length t.alap then begin
        if lvl < t.asap.(cid) then
          add window
            (D.error ~node:cid "sched.asap"
               "cluster %d at level %d precedes its ASAP level %d" cid lvl
               t.asap.(cid));
        if lvl > t.alap.(cid) + slack then
          add window
            (D.error ~node:cid "sched.asap"
               "cluster %d at level %d exceeds its ALAP level %d plus \
                inserted slack %d"
               cid lvl t.alap.(cid) slack)
      end
    end
  done;
  List.iter
    (fun (e : Cluster.edge) ->
      let src = placed_level t e.Cluster.src
      and dst = placed_level t e.Cluster.dst in
      if src >= 0 && dst >= 0 && src + e.Cluster.weight > dst then
        add dependence
          (D.error ~node:e.Cluster.dst "sched.dependence"
             "cluster %d at level %d violates dependence on cluster %d at \
              level %d (weight %d)"
             e.Cluster.dst dst e.Cluster.src src e.Cluster.weight))
    t.clustering.Cluster.edges;
  List.concat_map List.rev
    [ !unplaced; !misplaced; !dependence; !capacity; !window ]

let validate t ~alu_count =
  match check_diags t ~alu_count with
  | [] -> ()
  | d :: _ -> raise (Scheduling_error d.D.message)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun level cids ->
      Format.fprintf fmt "Level%d: %s@," level
        (String.concat " " (List.map (fun cid -> "Clu" ^ string_of_int cid) cids)))
    t.levels;
  Format.fprintf fmt "@]"
