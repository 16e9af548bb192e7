type id = int

module Id_set = Set.Make (Int)
module Id_map = Map.Make (Int)

type kind =
  | Const of int
  | Binop of Op.binop
  | Unop of Op.unop
  | Mux
  | Ss_in of string
  | Ss_out of string
  | Fe of string
  | St of string
  | Del of string

type node = {
  id : id;
  kind : kind;
  inputs : id array;
  order_after : id list;
}

type region_info = { size : int option; implicit : bool }

(* Arena representation. Nodes live in growable flat arrays indexed by id:
   [kinds.(id)], a liveness byte in [alive], and up to three packed input
   ids at [ins.(3*id + port)] (every kind has arity <= 3). Removal
   tombstones the slot — ids are never reused, because the dirty journal
   and the pass engine hold ids across mutations and a recycled id would
   alias a dead node's journal entries.

   The use/def index is id-indexed adjacency: [duse.(p)] holds the data
   edges leaving producer [p] as packed ints [(consumer lsl 2) lor port]
   (arity <= 3 so the port fits in two bits), [ouse.(p)] the consumers
   whose [order_after] lists [p], and [out_uses.(id)] counts named-output
   references. [duse] and [ouse] are kept strictly ascending, so readers
   never sort and deletes find their entry by binary search. [ord.(id)]
   stores the node's own order-after list oldest first; the public
   [order_after] view reverses it, preserving the newest-first order of
   the previous representation. Each adjacency array has a separate
   length ([*_len]); spare capacity is recycled through [pool], a free
   list of power-of-two int arrays, so the rewrite-heavy passes stop
   churning the major heap. *)
type t = {
  fname : string;
  region_tbl : (string, region_info) Hashtbl.t;
  mutable next_id : id;  (** one past the largest id ever allocated *)
  mutable live : int;
  mutable named_outputs : (string * id) list;
  mutable kinds : kind array;
  mutable alive : Bytes.t;
  mutable ins : int array;  (** 3 cells per slot, [arity kind] in use *)
  mutable ord : int array array;
  mutable ord_len : int array;
  mutable duse : int array array;
  mutable duse_len : int array;
  mutable ouse : int array array;
  mutable ouse_len : int array;
  mutable out_uses : int array;
  pool : int array list array;  (** bucket [b]: spare arrays of length [4 lsl b] *)
  mutable frozen : bool;
  mutable generation : int;
      (** bumped by every structural mutation; stamps the topo cache *)
  mutable topo_cache : (int * id list) option;
  mutable dirty_def : Id_set.t;
      (** nodes whose own definition (inputs / order edges) changed *)
  mutable dirty_use : Id_set.t;
      (** nodes that lost a use (a consumer was rewired or removed) *)
}

exception Invalid of string

let invalidf fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

let no_ints : int array = [||]
let pool_buckets = 16

let create fname =
  {
    fname;
    region_tbl = Hashtbl.create 8;
    next_id = 0;
    live = 0;
    named_outputs = [];
    kinds = [||];
    alive = Bytes.empty;
    ins = [||];
    ord = [||];
    ord_len = [||];
    duse = [||];
    duse_len = [||];
    ouse = [||];
    ouse_len = [||];
    out_uses = [||];
    pool = Array.make pool_buckets [];
    frozen = false;
    generation = 0;
    topo_cache = None;
    dirty_def = Id_set.empty;
    dirty_use = Id_set.empty;
  }

let name g = g.fname

let check_mutable g =
  if g.frozen then invalidf "graph %s is frozen" g.fname

let declare_region g region info =
  check_mutable g;
  Hashtbl.replace g.region_tbl region info

let region_info g region = Hashtbl.find_opt g.region_tbl region

let regions g =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) g.region_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let arity = function
  | Const _ | Ss_in _ -> 0
  | Unop _ | Ss_out _ -> 1
  | Binop _ | Fe _ -> 2
  | Mux | St _ -> 3
  | Del _ -> 2

(* {2 Slot storage} *)

let is_alive g id =
  id >= 0 && id < g.next_id && Bytes.unsafe_get g.alive id = '\001'

let mem g id = is_alive g id

let grow g cap' =
  let cap = Array.length g.kinds in
  let kinds' = Array.make cap' Mux in
  Array.blit g.kinds 0 kinds' 0 cap;
  g.kinds <- kinds';
  let alive' = Bytes.make cap' '\000' in
  Bytes.blit g.alive 0 alive' 0 cap;
  g.alive <- alive';
  let ins' = Array.make (3 * cap') 0 in
  Array.blit g.ins 0 ins' 0 (3 * cap);
  g.ins <- ins';
  let copy_adj arrs =
    let a' = Array.make cap' no_ints in
    Array.blit arrs 0 a' 0 cap;
    a'
  in
  let copy_len lens =
    let a' = Array.make cap' 0 in
    Array.blit lens 0 a' 0 cap;
    a'
  in
  g.ord <- copy_adj g.ord;
  g.ord_len <- copy_len g.ord_len;
  g.duse <- copy_adj g.duse;
  g.duse_len <- copy_len g.duse_len;
  g.ouse <- copy_adj g.ouse;
  g.ouse_len <- copy_len g.ouse_len;
  g.out_uses <- copy_len g.out_uses

let ensure_capacity g n =
  let cap = Array.length g.kinds in
  if n > cap then grow g (max 8 (max n (2 * cap)))

(* {2 Adjacency arrays and their free pool} *)

let bucket_of_len len =
  let rec go b l = if l <= 4 then b else go (b + 1) (l lsr 1) in
  go 0 len

let round_pow2 n =
  let r = ref 4 in
  while !r < n do
    r := !r lsl 1
  done;
  !r

let alloc_adj g n =
  let len = round_pow2 n in
  let b = bucket_of_len len in
  if b < pool_buckets then
    match g.pool.(b) with
    | a :: rest ->
      g.pool.(b) <- rest;
      a
    | [] -> Array.make len 0
  else Array.make len 0

let release_adj g a =
  let len = Array.length a in
  if len >= 4 && len land (len - 1) = 0 then begin
    let b = bucket_of_len len in
    if b < pool_buckets then g.pool.(b) <- a :: g.pool.(b)
  end

(* Adjacency entries are moved with plain loops, not [Array.blit]: the
   arrays are [int array]s, so a loop stores without a write barrier,
   while a blit into a major-heap block calls [caml_modify] per element.
   The helpers are annotated [int] so comparisons stay monomorphic. *)

(* [arrs.(i)], moved to a larger pooled array when it cannot hold [need]
   entries. *)
let adj_reserve g (arrs : int array array) lens i need =
  let a = arrs.(i) in
  if need <= Array.length a then a
  else begin
    let len = lens.(i) in
    let a' = alloc_adj g (max need (2 * len)) in
    for j = 0 to len - 1 do
      a'.(j) <- a.(j)
    done;
    release_adj g a;
    arrs.(i) <- a';
    a'
  end

let adj_push g arrs lens i (v : int) =
  let len = lens.(i) in
  let a = adj_reserve g arrs lens i (len + 1) in
  a.(len) <- v;
  lens.(i) <- len + 1

let adj_index (arrs : int array array) lens i (v : int) =
  let a = arrs.(i) in
  let len = lens.(i) in
  let rec find j = if j >= len then -1 else if a.(j) = v then j else find (j + 1) in
  find 0

let adj_mem arrs lens i v = adj_index arrs lens i v >= 0

(* Drops entry [j], shifting the tail down: order-preserving. *)
let adj_drop (arrs : int array array) lens i j =
  let a = arrs.(i) in
  for k = j to lens.(i) - 2 do
    a.(k) <- a.(k + 1)
  done;
  lens.(i) <- lens.(i) - 1

(* For [ord], whose order is observable. *)
let adj_remove_shift arrs lens i v =
  let j = adj_index arrs lens i v in
  if j >= 0 then adj_drop arrs lens i j

(* {3 Sorted adjacency ([duse], [ouse])} *)

(* The first position in [a.(0 .. len - 1)] whose entry is >= [v]. *)
let lower_bound (a : int array) len (v : int) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Set insert. A new node's uses sort after every existing entry (ids only
   grow), so the builder always takes the append path. *)
let adj_insert g arrs lens i (v : int) =
  let len = lens.(i) in
  if len = 0 || arrs.(i).(len - 1) < v then adj_push g arrs lens i v
  else begin
    let j = lower_bound arrs.(i) len v in
    if arrs.(i).(j) <> v then begin
      let a = adj_reserve g arrs lens i (len + 1) in
      for k = len downto j + 1 do
        a.(k) <- a.(k - 1)
      done;
      a.(j) <- v;
      lens.(i) <- len + 1
    end
  end

(* No-op when absent. *)
let adj_delete arrs lens i v =
  let j = lower_bound arrs.(i) lens.(i) v in
  if j < lens.(i) && arrs.(i).(j) = v then adj_drop arrs lens i j

(* Moves every entry of [arrs.(src)] into [arrs.(dst)]: each source
   entry, largest first, lands above the destination entries it exceeds.
   The two lists must share no entry. *)
let adj_merge_into g arrs lens ~src ~dst =
  let s = arrs.(src) in
  let m = lens.(src) and n = lens.(dst) in
  let d = adj_reserve g arrs lens dst (n + m) in
  let i = ref (n - 1) and k = ref (n + m - 1) in
  for j = m - 1 downto 0 do
    let v = s.(j) in
    while !i >= 0 && d.(!i) > v do
      d.(!k) <- d.(!i);
      decr i;
      decr k
    done;
    d.(!k) <- v;
    decr k
  done;
  lens.(dst) <- n + m

let adj_clear g arrs lens i =
  release_adj g arrs.(i);
  arrs.(i) <- no_ints;
  lens.(i) <- 0

(* {2 Access} *)

let node_exn g id =
  if not (is_alive g id) then invalidf "node %d does not exist" id

let kind g id =
  node_exn g id;
  g.kinds.(id)

let arity_of g id = arity (kind g id)

let input g id port =
  node_exn g id;
  if port < 0 || port >= arity g.kinds.(id) then
    invalidf "node %d has no input port %d" id port;
  g.ins.((3 * id) + port)

let inputs g id =
  node_exn g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  let rec build p acc =
    if p < 0 then acc else build (p - 1) (g.ins.(base + p) :: acc)
  in
  build (a - 1) []

(* Newest edge first, matching the prepend order of the old record-based
   representation ([ord] stores oldest first). *)
let order_after g id =
  node_exn g id;
  let a = g.ord.(id) in
  let len = g.ord_len.(id) in
  let rec build j acc = if j >= len then acc else build (j + 1) (a.(j) :: acc) in
  build 0 []

let preds g id = inputs g id @ order_after g id

let iter_preds g id f =
  node_exn g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  for p = 0 to a - 1 do
    f g.ins.(base + p)
  done;
  let oa = g.ord.(id) in
  for j = 0 to g.ord_len.(id) - 1 do
    f oa.(j)
  done

let node g id =
  node_exn g id;
  let k = g.kinds.(id) in
  let a = arity k in
  let base = 3 * id in
  { id; kind = k; inputs = Array.init a (fun p -> g.ins.(base + p));
    order_after = order_after g id }

let check_ref g id =
  if not (is_alive g id) then invalidf "dangling node reference %d" id

let id_bound g = g.next_id

(* {2 Journal plumbing} *)

let touch g = g.generation <- g.generation + 1
let mark_def g id = g.dirty_def <- Id_set.add id g.dirty_def
let mark_use g id = g.dirty_use <- Id_set.add id g.dirty_use

let drain_dirty g =
  let d = g.dirty_def and u = g.dirty_use in
  g.dirty_def <- Id_set.empty;
  g.dirty_use <- Id_set.empty;
  (d, u)

let generation g = g.generation

let consumers_of g id =
  if id < 0 || id >= g.next_id then []
  else begin
    let a = g.duse.(id) in
    let rec build j acc =
      if j < 0 then acc else build (j - 1) ((a.(j) lsr 2, a.(j) land 3) :: acc)
    in
    build (g.duse_len.(id) - 1) []
  end

let iter_consumers g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.duse.(id) in
    for j = 0 to g.duse_len.(id) - 1 do
      f (a.(j) lsr 2) (a.(j) land 3)
    done
  end

let order_successors g id =
  if id < 0 || id >= g.next_id then []
  else begin
    let a = g.ouse.(id) in
    let rec build j acc = if j < 0 then acc else build (j - 1) (a.(j) :: acc) in
    build (g.ouse_len.(id) - 1) []
  end

let data_use_count g id =
  if id < 0 || id >= g.next_id then 0 else g.duse_len.(id)

let sole_consumer g id =
  if data_use_count g id = 1 then g.duse.(id).(0) lsr 2 else -1

let use_count g id =
  if id < 0 || id >= g.next_id then 0
  else g.duse_len.(id) + g.out_uses.(id)

(* {2 Construction} *)

let add g kind inputs =
  check_mutable g;
  if List.length inputs <> arity kind then
    invalidf "wrong input arity for node (expected %d, got %d)" (arity kind)
      (List.length inputs);
  List.iter (check_ref g) inputs;
  ensure_capacity g (g.next_id + 1);
  let id = g.next_id in
  g.next_id <- id + 1;
  g.live <- g.live + 1;
  Bytes.set g.alive id '\001';
  g.kinds.(id) <- kind;
  List.iteri
    (fun port producer ->
      g.ins.((3 * id) + port) <- producer;
      adj_insert g g.duse g.duse_len producer ((id lsl 2) lor port))
    inputs;
  touch g;
  mark_def g id;
  id

let add_order g id ~after =
  check_ref g after;
  node_exn g id;
  if after <> id && not (adj_mem g.ord g.ord_len id after) then begin
    check_mutable g;
    adj_push g g.ord g.ord_len id after;
    adj_insert g g.ouse g.ouse_len after id;
    touch g;
    mark_def g id
  end

let remove_order g id ~after =
  node_exn g id;
  if adj_mem g.ord g.ord_len id after then begin
    check_mutable g;
    adj_remove_shift g.ord g.ord_len id after;
    adj_delete g.ouse g.ouse_len after id;
    touch g;
    mark_def g id
  end

let remove_order_all g id ~after =
  List.iter (fun a -> remove_order g id ~after:a) after

let set_output g output_name id =
  check_mutable g;
  check_ref g id;
  (match List.assoc_opt output_name g.named_outputs with
  | Some old ->
    if g.out_uses.(old) > 0 then g.out_uses.(old) <- g.out_uses.(old) - 1;
    mark_use g old
  | None -> ());
  g.out_uses.(id) <- g.out_uses.(id) + 1;
  g.named_outputs <-
    (output_name, id) :: List.remove_assoc output_name g.named_outputs

let outputs g =
  List.sort (fun (a, _) (b, _) -> String.compare a b) g.named_outputs

(* {2 Mutation} *)

let set_inputs g id inputs =
  check_mutable g;
  node_exn g id;
  let a = arity g.kinds.(id) in
  if List.length inputs <> a then
    invalidf "set_inputs: arity change on node %d" id;
  List.iter (check_ref g) inputs;
  let base = 3 * id in
  for port = 0 to a - 1 do
    let old = g.ins.(base + port) in
    adj_delete g.duse g.duse_len old ((id lsl 2) lor port);
    mark_use g old
  done;
  List.iteri
    (fun port producer ->
      g.ins.(base + port) <- producer;
      adj_insert g g.duse g.duse_len producer ((id lsl 2) lor port))
    inputs;
  touch g;
  mark_def g id

let replace_uses g old ~by =
  check_mutable g;
  check_ref g by;
  if by = old then begin
    (* Degenerate self-replacement: no structural change, but journal and
       generation behave exactly like the general case. *)
    List.iter (fun (cid, _) -> mark_def g cid) (consumers_of g old);
    List.iter (fun cid -> mark_def g cid) (order_successors g old);
    touch g;
    mark_use g old
  end
  else begin
    (* Data edges: the index lists exactly the affected (consumer, port)
       pairs, so this is O(degree of [old] + degree of [by]), not
       O(graph). The whole [duse.(old)] bucket merges into [duse.(by)]. *)
    (if old >= 0 && old < g.next_id then begin
       let a = g.duse.(old) in
       let len = g.duse_len.(old) in
       for j = 0 to len - 1 do
         let cid = a.(j) lsr 2 in
         g.ins.((3 * cid) + (a.(j) land 3)) <- by;
         mark_def g cid
       done;
       if len > 0 then begin
         adj_merge_into g g.duse g.duse_len ~src:old ~dst:by;
         adj_clear g g.duse g.duse_len old
       end
     end);
    (* Order edges: re-point, deduplicate, and never create a self edge. *)
    (if old >= 0 && old < g.next_id then begin
       let a = g.ouse.(old) in
       let len = g.ouse_len.(old) in
       for j = 0 to len - 1 do
         let cid = a.(j) in
         adj_remove_shift g.ord g.ord_len cid old;
         if by <> cid && not (adj_mem g.ord g.ord_len cid by) then begin
           adj_push g g.ord g.ord_len cid by;
           adj_insert g g.ouse g.ouse_len by cid
         end;
         mark_def g cid
       done;
       if len > 0 then adj_clear g g.ouse g.ouse_len old
     end);
    (if old >= 0 && old < g.next_id && g.out_uses.(old) > 0 then begin
       g.named_outputs <-
         List.map
           (fun (k, v) -> (k, if v = old then by else v))
           g.named_outputs;
       g.out_uses.(by) <- g.out_uses.(by) + g.out_uses.(old);
       g.out_uses.(old) <- 0
     end);
    touch g;
    mark_use g old
  end

let clear_order g id =
  node_exn g id;
  if g.ord_len.(id) > 0 then begin
    check_mutable g;
    let a = g.ord.(id) in
    for j = 0 to g.ord_len.(id) - 1 do
      adj_delete g.ouse g.ouse_len a.(j) id
    done;
    adj_clear g g.ord g.ord_len id;
    touch g;
    mark_def g id
  end

let drop_order_references g id =
  if id >= 0 && id < g.next_id && g.ouse_len.(id) > 0 then begin
    check_mutable g;
    let a = g.ouse.(id) in
    for j = 0 to g.ouse_len.(id) - 1 do
      let sid = a.(j) in
      adj_remove_shift g.ord g.ord_len sid id;
      mark_def g sid
    done;
    adj_clear g g.ouse g.ouse_len id;
    touch g
  end

let remove g id =
  check_mutable g;
  if use_count g id > 0 then invalidf "removing node %d which still has uses" id;
  node_exn g id;
  (* Drop order edges pointing at the removed node. *)
  drop_order_references g id;
  let a = arity g.kinds.(id) in
  let base = 3 * id in
  for port = 0 to a - 1 do
    let producer = g.ins.(base + port) in
    adj_delete g.duse g.duse_len producer ((id lsl 2) lor port);
    mark_use g producer
  done;
  let oa = g.ord.(id) in
  for j = 0 to g.ord_len.(id) - 1 do
    adj_delete g.ouse g.ouse_len oa.(j) id
  done;
  adj_clear g g.ord g.ord_len id;
  adj_clear g g.duse g.duse_len id;
  adj_clear g g.ouse g.ouse_len id;
  Bytes.set g.alive id '\000';
  g.live <- g.live - 1;
  touch g

(* {2 Freezing} *)

let frozen g = g.frozen

(* {2 Traversal} *)

let iter_ids g f =
  for id = 0 to g.next_id - 1 do
    if Bytes.unsafe_get g.alive id = '\001' then f id
  done

let node_ids g =
  let acc = ref [] in
  for id = g.next_id - 1 downto 0 do
    if Bytes.unsafe_get g.alive id = '\001' then acc := id :: !acc
  done;
  !acc

let node_count g = g.live

let iter g f = iter_ids g (fun id -> f (node g id))

let fold g ~init ~f =
  let acc = ref init in
  iter_ids g (fun id -> acc := f !acc (node g id));
  !acc

let consumers g =
  let tbl = Hashtbl.create (max 16 g.live) in
  iter_ids g (fun cid ->
      let a = arity g.kinds.(cid) in
      let base = 3 * cid in
      for port = 0 to a - 1 do
        let producer = g.ins.(base + port) in
        let old =
          match Hashtbl.find_opt tbl producer with Some l -> l | None -> []
        in
        Hashtbl.replace tbl producer ((cid, port) :: old)
      done);
  tbl

let find_region_node g region ~test =
  let found = ref None in
  (try
     iter_ids g (fun id ->
         if test g.kinds.(id) region then begin
           found := Some id;
           raise Exit
         end)
   with Exit -> ());
  !found

let ss_in_of g region =
  find_region_node g region ~test:(fun kind r ->
      match kind with Ss_in r' -> String.equal r r' | _ -> false)

let ss_out_of g region =
  find_region_node g region ~test:(fun kind r ->
      match kind with Ss_out r' -> String.equal r r' | _ -> false)

(* {2 Topological order} *)

(* Kahn's algorithm over the flat arrays: indegrees and a duplicate-edge
   stamp in id-indexed int arrays, successors read straight from the
   use/def adjacency, and a binary min-heap on ids so the resulting order
   is deterministic (ascending-id tie-break, as before). The result is
   cached and stamped with the generation counter: read-only phases
   (evaluation, clustering, serialisation, range analysis) reuse one order
   instead of re-running Kahn's algorithm per call. *)
let compute_topo_order g =
  if g.live = 0 then []
  else begin
    let n = g.next_id in
    let indeg = Array.make n 0 in
    (* stamp.(p) = consumer currently being counted: dedups parallel edges
       (same producer on two ports, or a data edge doubled by an order
       edge) so each unique predecessor contributes one indegree. *)
    let stamp = Array.make n (-1) in
    for cid = 0 to n - 1 do
      if Bytes.unsafe_get g.alive cid = '\001' then begin
        let a = arity (Array.unsafe_get g.kinds cid) in
        let base = 3 * cid in
        for port = 0 to a - 1 do
          let p = Array.unsafe_get g.ins (base + port) in
          if Array.unsafe_get stamp p <> cid then begin
            Array.unsafe_set stamp p cid;
            Array.unsafe_set indeg cid (Array.unsafe_get indeg cid + 1)
          end
        done;
        let oa = Array.unsafe_get g.ord cid in
        for j = 0 to Array.unsafe_get g.ord_len cid - 1 do
          let p = Array.unsafe_get oa j in
          if Array.unsafe_get stamp p <> cid then begin
            Array.unsafe_set stamp p cid;
            Array.unsafe_set indeg cid (Array.unsafe_get indeg cid + 1)
          end
        done
      end
    done;
    let heap = Array.make g.live 0 in
    let hlen = ref 0 in
    let push v =
      let i = ref !hlen in
      incr hlen;
      heap.(!i) <- v;
      let continue = ref true in
      while !continue && !i > 0 do
        let p = (!i - 1) / 2 in
        if heap.(p) > heap.(!i) then begin
          let tmp = heap.(p) in
          heap.(p) <- heap.(!i);
          heap.(!i) <- tmp;
          i := p
        end
        else continue := false
      done
    in
    let pop () =
      let top = heap.(0) in
      decr hlen;
      heap.(0) <- heap.(!hlen);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !hlen && heap.(l) < heap.(!s) then s := l;
        if r < !hlen && heap.(r) < heap.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = heap.(!s) in
          heap.(!s) <- heap.(!i);
          heap.(!i) <- tmp;
          i := !s
        end
      done;
      top
    in
    for id = 0 to n - 1 do
      if Bytes.unsafe_get g.alive id = '\001' && indeg.(id) = 0 then push id
    done;
    (* Second stamp pass: decrement each unique successor exactly once per
       popped producer. *)
    let stamp2 = Array.make n (-1) in
    let out = ref [] in
    let count = ref 0 in
    while !hlen > 0 do
      let id = pop () in
      out := id :: !out;
      incr count;
      let da = g.duse.(id) in
      for j = 0 to g.duse_len.(id) - 1 do
        let c = Array.unsafe_get da j lsr 2 in
        if Array.unsafe_get stamp2 c <> id then begin
          Array.unsafe_set stamp2 c id;
          let deg = Array.unsafe_get indeg c - 1 in
          Array.unsafe_set indeg c deg;
          if deg = 0 then push c
        end
      done;
      let oa = g.ouse.(id) in
      for j = 0 to g.ouse_len.(id) - 1 do
        let c = Array.unsafe_get oa j in
        if Array.unsafe_get stamp2 c <> id then begin
          Array.unsafe_set stamp2 c id;
          let deg = Array.unsafe_get indeg c - 1 in
          Array.unsafe_set indeg c deg;
          if deg = 0 then push c
        end
      done
    done;
    if !count <> g.live then invalidf "graph %s has a cycle" g.fname;
    List.rev !out
  end

let topo_order g =
  match g.topo_cache with
  | Some (gen, order) when gen = g.generation -> order
  | Some _ | None ->
    let order = compute_topo_order g in
    g.topo_cache <- Some (g.generation, order);
    order

let freeze g =
  if not g.frozen then begin
    (* Fill the topo cache first: frozen readers on other domains then
       share one precomputed order and never write to the cache. *)
    ignore (topo_order g);
    g.frozen <- true
  end

let depth g =
  let order = topo_order g in
  let d = Array.make (max 1 g.next_id) 0 in
  List.iter
    (fun id ->
      let m = ref 0 in
      iter_preds g id (fun p -> if d.(p) + 1 > !m then m := d.(p) + 1);
      d.(id) <- !m)
    order;
  fun id ->
    if is_alive g id then d.(id) else invalidf "depth: unknown node %d" id

let produces_token = function
  | Ss_in _ | St _ | Del _ -> true
  | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ -> false

let produces_value = function
  | Const _ | Binop _ | Unop _ | Mux | Fe _ -> true
  | Ss_in _ | Ss_out _ | St _ | Del _ -> false

let token_region g id =
  match kind g id with
  | Ss_in r | St r | Del r -> Some r
  | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ -> None

(* Recomputes the use/def index from the forward structure and compares it
   with the maintained adjacency. O(V + E); used by [validate], the
   verifier in lib/analysis and the index-invariant tests to catch any
   mutation path that forgets an index update. Accumulates every
   divergence so the diagnostic-producing callers report them all in one
   run. *)
let index_errors g =
  let errs = ref [] in
  let errf fmt = Format.kasprintf (fun msg -> errs := msg :: !errs) fmt in
  let n = g.next_id in
  (* Group the expected reverse edges by producer in one forward scan.
     Consumers are visited in ascending id and port order, so each group
     comes out descending: the maintained entries, which the index keeps
     strictly ascending, read backwards. *)
  let exp_data_by = Array.make (max 1 n) [] in
  let exp_order_by = Array.make (max 1 n) [] in
  let exp_data = ref 0 and exp_order = ref 0 in
  for cid = 0 to n - 1 do
    if is_alive g cid then begin
      let a = arity g.kinds.(cid) in
      let base = 3 * cid in
      for port = 0 to a - 1 do
        incr exp_data;
        let p = g.ins.(base + port) in
        if p >= 0 && p < n then
          exp_data_by.(p) <- ((cid lsl 2) lor port) :: exp_data_by.(p)
        else errf "use/def index misses data edge %d -> (%d, port %d)" p cid port
      done;
      let oa = g.ord.(cid) in
      for j = 0 to g.ord_len.(cid) - 1 do
        incr exp_order;
        let p = oa.(j) in
        if p >= 0 && p < n then exp_order_by.(p) <- cid :: exp_order_by.(p)
        else errf "use/def index misses order edge %d -> %d" p cid
      done
    end
  done;
  (* Calls [miss e] for each entry of [expected] (descending) absent from
     the first [len] entries of [indexed] (ascending). *)
  let missing expected (indexed : int array) len miss =
    let rec walk exp j =
      match exp with
      | [] -> ()
      | e :: rest ->
        if j >= 0 && indexed.(j) > e then walk exp (j - 1)
        else if j >= 0 && indexed.(j) = e then walk rest (j - 1)
        else begin
          miss e;
          walk rest j
        end
    in
    walk expected (len - 1)
  in
  let idx_data = ref 0 and idx_order = ref 0 in
  for p = 0 to n - 1 do
    let check what (arrs : int array array) lens =
      let a = arrs.(p) in
      for j = 1 to lens.(p) - 1 do
        if a.(j - 1) >= a.(j) then
          errf "use/def index of node %d has %s entries out of order" p what
      done
    in
    check "data" g.duse g.duse_len;
    check "order" g.ouse g.ouse_len;
    idx_data := !idx_data + g.duse_len.(p);
    idx_order := !idx_order + g.ouse_len.(p);
    missing exp_data_by.(p) g.duse.(p) g.duse_len.(p) (fun e ->
        errf "use/def index misses data edge %d -> (%d, port %d)" p (e lsr 2)
          (e land 3));
    missing exp_order_by.(p) g.ouse.(p) g.ouse_len.(p) (fun cid ->
        errf "use/def index misses order edge %d -> %d" p cid)
  done;
  if !idx_data <> !exp_data then
    errf "use/def index has stale data edges (%d indexed, %d real)" !idx_data
      !exp_data;
  if !idx_order <> !exp_order then
    errf "use/def index has stale order edges (%d indexed, %d real)"
      !idx_order !exp_order;
  let expect_outputs = Hashtbl.create 8 in
  List.iter
    (fun (_, v) ->
      Hashtbl.replace expect_outputs v
        (1 + match Hashtbl.find_opt expect_outputs v with Some c -> c | None -> 0))
    g.named_outputs;
  Hashtbl.iter
    (fun id c ->
      let counted = if id >= 0 && id < n then g.out_uses.(id) else 0 in
      if counted <> c then
        errf "use/def index miscounts named-output references of node %d" id)
    expect_outputs;
  for id = 0 to n - 1 do
    if g.out_uses.(id) <> 0
       && Hashtbl.find_opt expect_outputs id <> Some g.out_uses.(id)
    then errf "use/def index has stale named-output count for node %d" id
  done;
  List.rev !errs

let check_index g =
  match index_errors g with [] -> () | msg :: _ -> raise (Invalid msg)

(* Port typing: for each node kind, which input ports expect a token of the
   node's own region (port 0 of Fe/St/Del/Ss_out) and which expect values. *)
let validate g =
  iter g (fun n ->
      if Array.length n.inputs <> arity n.kind then
        invalidf "node %d: arity mismatch" n.id;
      Array.iter
        (fun input ->
          if not (mem g input) then
            invalidf "node %d: dangling input %d" n.id input)
        n.inputs;
      List.iter
        (fun input ->
          if not (mem g input) then
            invalidf "node %d: dangling order edge %d" n.id input)
        n.order_after;
      let expect_value port =
        let p = n.inputs.(port) in
        if not (produces_value (kind g p)) then
          invalidf "node %d: input port %d expects a value, got a token" n.id
            port
      in
      let expect_token port region =
        let p = n.inputs.(port) in
        if not (produces_token (kind g p)) then
          invalidf "node %d: input port %d expects a statespace token" n.id
            port;
        match token_region g p with
        | Some r when String.equal r region -> ()
        | Some r ->
          invalidf "node %d: token of region %s flows into region %s" n.id r
            region
        | None -> assert false
      in
      let check_region region =
        if region_info g region = None then
          invalidf "node %d references undeclared region %s" n.id region
      in
      match n.kind with
      | Const _ -> ()
      | Binop _ ->
        expect_value 0;
        expect_value 1
      | Unop _ -> expect_value 0
      | Mux ->
        expect_value 0;
        expect_value 1;
        expect_value 2
      | Ss_in region -> check_region region
      | Ss_out region ->
        check_region region;
        expect_token 0 region
      | Fe region ->
        check_region region;
        expect_token 0 region;
        expect_value 1
      | St region ->
        check_region region;
        expect_token 0 region;
        expect_value 1;
        expect_value 2
      | Del region ->
        check_region region;
        expect_token 0 region;
        expect_value 1);
  (* At most one Ss_in / Ss_out per region. *)
  let count_kind test =
    let tbl = Hashtbl.create 8 in
    iter g (fun n ->
        match test n.kind with
        | Some region ->
          let old =
            match Hashtbl.find_opt tbl region with Some c -> c | None -> 0
          in
          Hashtbl.replace tbl region (old + 1)
        | None -> ());
    tbl
  in
  let ins = count_kind (function Ss_in r -> Some r | _ -> None) in
  let outs = count_kind (function Ss_out r -> Some r | _ -> None) in
  Hashtbl.iter
    (fun region c ->
      if c > 1 then invalidf "region %s has %d Ss_in nodes" region c)
    ins;
  Hashtbl.iter
    (fun region c ->
      if c > 1 then invalidf "region %s has %d Ss_out nodes" region c)
    outs;
  List.iter
    (fun (oname, id) ->
      if not (mem g id) then invalidf "named output %s is dangling" oname;
      if not (produces_value (kind g id)) then
        invalidf "named output %s is not a value" oname)
    g.named_outputs;
  check_index g;
  (* Acyclicity (raises on cycles). *)
  ignore (topo_order g)

let copy g =
  let n = g.next_id in
  let copy_adj arrs lens =
    Array.init n (fun i ->
        if lens.(i) = 0 then no_ints else Array.sub arrs.(i) 0 lens.(i))
  in
  {
    fname = g.fname;
    region_tbl = Hashtbl.copy g.region_tbl;
    next_id = n;
    live = g.live;
    named_outputs = g.named_outputs;
    kinds = Array.sub g.kinds 0 n;
    alive = Bytes.sub g.alive 0 n;
    ins = Array.sub g.ins 0 (3 * n);
    ord = copy_adj g.ord g.ord_len;
    ord_len = Array.sub g.ord_len 0 n;
    duse = copy_adj g.duse g.duse_len;
    duse_len = Array.sub g.duse_len 0 n;
    ouse = copy_adj g.ouse g.ouse_len;
    ouse_len = Array.sub g.ouse_len 0 n;
    out_uses = Array.sub g.out_uses 0 n;
    pool = Array.make pool_buckets [];
    frozen = false;
    generation = 0;
    topo_cache =
      (match g.topo_cache with
      | Some (gen, order) when gen = g.generation -> Some (0, order)
      | Some _ | None -> None);
    dirty_def = Id_set.empty;
    dirty_use = Id_set.empty;
  }

type stats = {
  total : int;
  consts : int;
  fetches : int;
  stores : int;
  deletes : int;
  muxes : int;
  multiplies : int;
  adds : int;
  other_alu : int;
  ss_nodes : int;
  critical_path : int;
}

let stats g =
  let zero =
    {
      total = 0;
      consts = 0;
      fetches = 0;
      stores = 0;
      deletes = 0;
      muxes = 0;
      multiplies = 0;
      adds = 0;
      other_alu = 0;
      ss_nodes = 0;
      critical_path = 0;
    }
  in
  let s =
    fold g ~init:zero ~f:(fun s n ->
        let s = { s with total = s.total + 1 } in
        match n.kind with
        | Const _ -> { s with consts = s.consts + 1 }
        | Fe _ -> { s with fetches = s.fetches + 1 }
        | St _ -> { s with stores = s.stores + 1 }
        | Del _ -> { s with deletes = s.deletes + 1 }
        | Mux -> { s with muxes = s.muxes + 1 }
        | Ss_in _ | Ss_out _ -> { s with ss_nodes = s.ss_nodes + 1 }
        | Binop op when Op.is_multiplier_class op ->
          { s with multiplies = s.multiplies + 1 }
        | Binop (Op.Add | Op.Sub) -> { s with adds = s.adds + 1 }
        | Binop _ | Unop _ -> { s with other_alu = s.other_alu + 1 })
  in
  let depth_of = depth g in
  let critical_path =
    fold g ~init:0 ~f:(fun acc n -> max acc (depth_of n.id + 1))
  in
  { s with critical_path }

let pp_stats fmt s =
  Format.fprintf fmt
    "total=%d consts=%d FE=%d ST=%d DEL=%d mux=%d mul=%d add/sub=%d other=%d \
     ss=%d critical_path=%d"
    s.total s.consts s.fetches s.stores s.deletes s.muxes s.multiplies s.adds
    s.other_alu s.ss_nodes s.critical_path
