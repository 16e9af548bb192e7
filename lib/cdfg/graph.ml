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
   edges leaving producer [p] as packed ints
   [(consumer lsl 3) lor (port lsl 1)] (arity <= 3 so the port fits in
   two bits; the low bit marks a {e dead} entry, see the data-use section
   below), [ouse.(p)] the consumers whose [order_after] lists [p], and
   [out_uses.(id)] counts named-output references. [ouse] is kept strictly
   ascending. [ord.(id)] stores the node's own order-after list oldest
   first; the public [order_after] view reverses it, preserving the
   newest-first order of the previous representation. [ord] and [ouse]
   have a separate length array ([*_len]); a [duse] list carries its
   counts in a header. Spare capacity is recycled through [pool], a free
   list of power-of-two int arrays, so the rewrite-heavy passes stop
   churning the major heap.

   The dirty journal is a flag byte per id ([dirty]: bit 0 def-dirty,
   bit 1 use-dirty) plus the marked ids in order of marking ([def_ids],
   [use_ids]), so a mark is O(1) and allocates nothing. *)
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
  mutable duse : int array array;  (** a header, then the entries *)
  mutable ouse : int array array;
  mutable ouse_len : int array;
  mutable out_uses : int array;
  pool : int array list array;  (** bucket [b]: spare arrays of length [4 lsl b] *)
  mutable frozen : bool;
  mutable generation : int;
      (** bumped by every structural mutation; stamps the topo cache *)
  mutable topo_cache : (int * id list) option;
  mutable dirty : Bytes.t;
  mutable def_ids : int array;
      (** nodes whose own definition (inputs / order edges) changed *)
  mutable def_n : int;
  mutable use_ids : int array;
      (** nodes that lost a use (a consumer was rewired or removed) *)
  mutable use_n : int;
}

exception Invalid of string

let invalidf fmt = Format.kasprintf (fun msg -> raise (Invalid msg)) fmt

let no_ints : int array = [||]

(* The data-use list of every producer without one (see the data-use
   section): its header reads zero entries, and nothing writes to it. *)
let no_uses : int array = [| 0; 0; 0 |]
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
    ouse = [||];
    ouse_len = [||];
    out_uses = [||];
    pool = Array.make pool_buckets [];
    frozen = false;
    generation = 0;
    topo_cache = None;
    dirty = Bytes.empty;
    def_ids = no_ints;
    def_n = 0;
    use_ids = no_ints;
    use_n = 0;
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
  let grow_bytes b =
    let b' = Bytes.make cap' '\000' in
    Bytes.blit b 0 b' 0 cap;
    b'
  in
  g.alive <- grow_bytes g.alive;
  g.dirty <- grow_bytes g.dirty;
  let ins' = Array.make (3 * cap') 0 in
  Array.blit g.ins 0 ins' 0 (3 * cap);
  g.ins <- ins';
  let copy_adj ?(empty = no_ints) arrs =
    let a' = Array.make cap' empty in
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
  g.duse <- copy_adj ~empty:no_uses g.duse;
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

(* {3 Sorted adjacency ([ouse])} *)

(* The first position in [a.(lo .. hi - 1)] whose entry is >= [v], or
   [hi]. *)
let lower_bound (a : int array) lo hi (v : int) =
  let lo = ref lo and hi = ref hi in
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
    let j = lower_bound arrs.(i) 0 len v in
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
  let j = lower_bound arrs.(i) 0 lens.(i) v in
  if j < lens.(i) && arrs.(i).(j) = v then adj_drop arrs lens i j

let adj_clear g arrs lens i =
  release_adj g arrs.(i);
  arrs.(i) <- no_ints;
  lens.(i) <- 0

(* {3 Data uses ([duse])}

   A hub — a constant read by thousands of fetches and stores — must not
   pay for its degree on every rewrite of one of its consumers. A
   producer's list [duse.(p)] is one int array: a three-cell header (the
   entries in use, the length of the sorted run, the live entries) and
   then the entries, a sorted {e run} followed by unsorted {e appends}.
   Keeping the counts in the list, not in per-id arrays, costs nothing
   for ids without uses (they share [no_uses]) and keeps the graph's
   per-id footprint at ten words.

   - The run is non-decreasing. A deleted entry stays in place as a dead
     entry that readers skip; deletes find their entry by binary search.
     An insert whose place in the run holds a dead entry reuses that
     slot: [set_inputs] rewiring a consumer back lands on its own dead
     entry.
   - Any other insert is appended after the run, and [replace_uses]
     appends the moved entries (or hands over the whole list when the
     target has none). The appends hold no dead entries: deleting one
     moves the last append into its slot.
   - The live count makes [data_use_count] and [use_count] O(1).

   Mutators restore a plain sorted run ([duse_normalise]) once dead
   entries outnumber live ones or the appends outgrow [appends_cap], so
   each restore is paid for by the operations since the last one. Hence
   a producer with one use has at most one dead entry before it, which
   keeps [sole_consumer] O(1). Readers never write: an ordered read of a
   list with appends sorts a private copy of the appends and merges it
   with the run on the fly. *)

let header = 3
let d_len (a : int array) = a.(0)
let d_run (a : int array) = a.(1)
let d_live (a : int array) = a.(2)
let d_appends a = d_len a - d_run a
let d_dead a = d_run a - (d_live a - d_appends a)

let use_entry consumer port = (consumer lsl 3) lor (port lsl 1)
let entry_consumer (v : int) = v lsr 3
let entry_port (v : int) = (v lsr 1) land 3

(* A dead entry is its live value plus one: it sorts exactly where the
   live entry did, so the run stays in order. *)
let is_dead (v : int) = v land 1 = 1
let appends_cap live = 8 + (live lsr 3)

let sort_prefix = Fpfa_util.Intsort.sort_prefix

let duse_clear g p =
  release_adj g g.duse.(p);
  g.duse.(p) <- no_uses

(* [p]'s list, moved to a larger pooled array when it cannot hold [need]
   entries. *)
let duse_reserve g p need =
  let a = g.duse.(p) in
  if header + need <= Array.length a then a
  else begin
    let a' = alloc_adj g (header + max need (2 * d_len a)) in
    for j = 0 to header + d_len a - 1 do
      a'.(j) <- a.(j)
    done;
    release_adj g a;
    g.duse.(p) <- a';
    a'
  end

(* Drops [p]'s dead entries and merges the sorted appends into the run,
   in place. O(entries). *)
let duse_normalise g p =
  let a = g.duse.(p) in
  let live = d_live a in
  if live = 0 then duse_clear g p
  else begin
    let run = d_run a in
    let appends = Array.sub a (header + run) (d_appends a) in
    sort_prefix appends (Array.length appends);
    let kept = ref header in
    for j = header to header + run - 1 do
      if not (is_dead a.(j)) then begin
        a.(!kept) <- a.(j);
        incr kept
      end
    done;
    (* Backward merge of the compacted run and the appends. *)
    let i = ref (!kept - 1) and j = ref (Array.length appends - 1) in
    for dst = header + live - 1 downto header do
      if !j < 0 || (!i >= header && a.(!i) > appends.(!j)) then begin
        a.(dst) <- a.(!i);
        decr i
      end
      else begin
        a.(dst) <- appends.(!j);
        decr j
      end
    done;
    a.(0) <- live;
    a.(1) <- live
  end

let duse_insert g p (v : int) =
  let a = g.duse.(p) in
  let len = d_len a and run = d_run a in
  let a =
    if len = run && (run = 0 || a.(header + run - 1) < v) then begin
      let a = duse_reserve g p (len + 1) in
      a.(header + len) <- v;
      a.(0) <- len + 1;
      a.(1) <- run + 1;
      a
    end
    else begin
      let j = lower_bound a header (header + run) v in
      if j < header + run && is_dead a.(j) then begin
        a.(j) <- v;
        a
      end
      else if j > header && is_dead a.(j - 1) then begin
        a.(j - 1) <- v;
        a
      end
      else begin
        let a = duse_reserve g p (len + 1) in
        a.(header + len) <- v;
        a.(0) <- len + 1;
        a
      end
    end
  in
  a.(2) <- d_live a + 1;
  if d_appends a > appends_cap (d_live a) then duse_normalise g p

(* No-op when absent. *)
let duse_delete g p (v : int) =
  let a = g.duse.(p) in
  let run = d_run a and len = d_len a in
  let j = lower_bound a header (header + run) v in
  let found =
    if j < header + run && a.(j) = v then begin
      a.(j) <- v lor 1;
      true
    end
    else begin
      let k = ref (header + run) in
      while !k < header + len && a.(!k) <> v do
        incr k
      done;
      if !k < header + len then begin
        a.(!k) <- a.(header + len - 1);
        a.(0) <- len - 1
      end;
      !k < header + len
    end
  in
  if found then begin
    a.(2) <- d_live a - 1;
    if d_dead a > d_live a then duse_normalise g p
  end

(* Moves every use of [src] onto [dst]; the two must share no entry. *)
let duse_move g ~src ~dst =
  let s = g.duse.(src) in
  if d_live s > 0 then begin
    if d_len g.duse.(dst) = 0 then begin
      release_adj g g.duse.(dst);
      g.duse.(dst) <- s;
      g.duse.(src) <- no_uses
    end
    else begin
      for j = header to header + d_len s - 1 do
        if not (is_dead s.(j)) then duse_insert g dst s.(j)
      done;
      duse_clear g src
    end
  end

(* Writes [p]'s live entries in ascending order to [dst] (which must hold
   [d_len] entries) and returns their number. Reads [g] only: the appends
   are sorted in a private copy and merged with the run. *)
let duse_sorted_into g p (dst : int array) =
  let a = g.duse.(p) in
  let run_end = header + d_run a in
  let appends = Array.sub a run_end (d_appends a) in
  sort_prefix appends (Array.length appends);
  let i = ref header and k = ref 0 in
  let take v =
    dst.(!k) <- v;
    incr k
  in
  for j = 0 to Array.length appends - 1 do
    while !i < run_end && a.(!i) < appends.(j) do
      if not (is_dead a.(!i)) then take a.(!i);
      incr i
    done;
    take appends.(j)
  done;
  for j = !i to run_end - 1 do
    if not (is_dead a.(j)) then take a.(j)
  done;
  !k

(* [p]'s live entries, ascending, in a fresh array. *)
let duse_sorted g p =
  let dst = Array.make (d_len g.duse.(p)) 0 in
  let k = duse_sorted_into g p dst in
  Array.sub dst 0 k

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

(* [ids] with [id] stored at [n], grown when full. *)
let push_id (ids : int array) n (id : int) =
  let ids =
    if n < Array.length ids then ids
    else begin
      let ids' = Array.make (max 16 (2 * n)) 0 in
      for i = 0 to n - 1 do
        ids'.(i) <- ids.(i)
      done;
      ids'
    end
  in
  ids.(n) <- id;
  ids

let marked g id bit = Char.code (Bytes.get g.dirty id) land bit <> 0

let set_mark g id bit on =
  let f = Char.code (Bytes.get g.dirty id) in
  Bytes.set g.dirty id (Char.chr (if on then f lor bit else f land lnot bit))

let mark_def g id =
  if id >= 0 && id < g.next_id && not (marked g id 1) then begin
    set_mark g id 1 true;
    g.def_ids <- push_id g.def_ids g.def_n id;
    g.def_n <- g.def_n + 1
  end

let mark_use g id =
  if id >= 0 && id < g.next_id && not (marked g id 2) then begin
    set_mark g id 2 true;
    g.use_ids <- push_id g.use_ids g.use_n id;
    g.use_n <- g.use_n + 1
  end

(* The first [n] ids of [ids] as an ascending list, their [bit] cleared. *)
let drain_ids g (ids : int array) n bit =
  sort_prefix ids n;
  let rec build i acc =
    if i < 0 then acc
    else begin
      set_mark g ids.(i) bit false;
      build (i - 1) (ids.(i) :: acc)
    end
  in
  build (n - 1) []

(* A drained buffer longer than this is dropped rather than kept, so a
   graph fresh from the builder does not hold a slot per node. *)
let journal_keep = 256

let drain_dirty g =
  if g.def_n = 0 && g.use_n = 0 then ([], [])
  else begin
    let defs = drain_ids g g.def_ids g.def_n 1 in
    let uses = drain_ids g g.use_ids g.use_n 2 in
    g.def_n <- 0;
    g.use_n <- 0;
    if Array.length g.def_ids > journal_keep then g.def_ids <- no_ints;
    if Array.length g.use_ids > journal_keep then g.use_ids <- no_ints;
    (defs, uses)
  end

let clear_dirty g =
  for i = 0 to g.def_n - 1 do
    set_mark g g.def_ids.(i) 1 false
  done;
  for i = 0 to g.use_n - 1 do
    set_mark g g.use_ids.(i) 2 false
  done;
  g.def_n <- 0;
  g.use_n <- 0;
  if Array.length g.def_ids > journal_keep then g.def_ids <- no_ints;
  if Array.length g.use_ids > journal_keep then g.use_ids <- no_ints

let generation g = g.generation

let consumers_of g id =
  if id < 0 || id >= g.next_id then []
  else if d_appends g.duse.(id) = 0 then begin
    let a = g.duse.(id) in
    let rec build j acc =
      if j < header then acc
      else if is_dead a.(j) then build (j - 1) acc
      else build (j - 1) ((entry_consumer a.(j), entry_port a.(j)) :: acc)
    in
    build (header + d_run a - 1) []
  end
  else
    Array.fold_right
      (fun v acc -> (entry_consumer v, entry_port v) :: acc)
      (duse_sorted g id) []

let iter_consumers g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.duse.(id) in
    if d_appends a = 0 then begin
      for j = header to header + d_run a - 1 do
        let v = a.(j) in
        if not (is_dead v) then f (entry_consumer v) (entry_port v)
      done
    end
    else Array.iter (fun v -> f (entry_consumer v) (entry_port v)) (duse_sorted g id)
  end

let order_successors g id =
  if id < 0 || id >= g.next_id then []
  else begin
    let a = g.ouse.(id) in
    let rec build j acc = if j < 0 then acc else build (j - 1) (a.(j) :: acc) in
    build (g.ouse_len.(id) - 1) []
  end

let iter_order_successors g id f =
  if id >= 0 && id < g.next_id then begin
    let a = g.ouse.(id) in
    for j = 0 to g.ouse_len.(id) - 1 do
      f a.(j)
    done
  end

let data_use_count g id =
  if id < 0 || id >= g.next_id then 0 else d_live g.duse.(id)

(* With one live entry there is at most one dead entry (see
   [duse_normalise]'s triggers), and the appends hold none. *)
let sole_consumer g id =
  if data_use_count g id <> 1 then -1
  else begin
    let a = g.duse.(id) in
    entry_consumer (if is_dead a.(header) then a.(header + 1) else a.(header))
  end

let use_count g id =
  if id < 0 || id >= g.next_id then 0
  else d_live g.duse.(id) + g.out_uses.(id)

(* {2 Construction} *)

(* Points [id]'s input ports at [inputs], indexing each new use. *)
let rec wire_inputs g id port = function
  | [] -> ()
  | producer :: rest ->
    g.ins.((3 * id) + port) <- producer;
    duse_insert g producer (use_entry id port);
    wire_inputs g id (port + 1) rest

let rec check_refs g = function
  | [] -> ()
  | id :: rest ->
    check_ref g id;
    check_refs g rest

let add g kind inputs =
  check_mutable g;
  if List.length inputs <> arity kind then
    invalidf "wrong input arity for node (expected %d, got %d)" (arity kind)
      (List.length inputs);
  check_refs g inputs;
  ensure_capacity g (g.next_id + 1);
  let id = g.next_id in
  g.next_id <- id + 1;
  g.live <- g.live + 1;
  Bytes.set g.alive id '\001';
  g.kinds.(id) <- kind;
  wire_inputs g id 0 inputs;
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
    (output_name, id) :: List.remove_assoc output_name g.named_outputs;
  touch g

let outputs g =
  List.sort (fun (a, _) (b, _) -> String.compare a b) g.named_outputs

(* {2 Mutation} *)

let set_inputs g id inputs =
  check_mutable g;
  node_exn g id;
  let a = arity g.kinds.(id) in
  if List.length inputs <> a then
    invalidf "set_inputs: arity change on node %d" id;
  check_refs g inputs;
  let base = 3 * id in
  for port = 0 to a - 1 do
    let old = g.ins.(base + port) in
    duse_delete g old (use_entry id port);
    mark_use g old
  done;
  wire_inputs g id 0 inputs;
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
       pairs, so this is O(degree of [old]), whatever the degree of
       [by]: the moved entries are appended to [by]'s. *)
    (if old >= 0 && old < g.next_id then begin
       let a = g.duse.(old) in
       for j = header to header + d_len a - 1 do
         let v = a.(j) in
         if not (is_dead v) then begin
           g.ins.((3 * entry_consumer v) + entry_port v) <- by;
           mark_def g (entry_consumer v)
         end
       done;
       duse_move g ~src:old ~dst:by
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
    duse_delete g producer (use_entry id port);
    mark_use g producer
  done;
  let oa = g.ord.(id) in
  for j = 0 to g.ord_len.(id) - 1 do
    adj_delete g.ouse g.ouse_len oa.(j) id
  done;
  adj_clear g g.ord g.ord_len id;
  duse_clear g id;
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
      for j = header to header + d_len da - 1 do
        let v = Array.unsafe_get da j in
        let c = entry_consumer v in
        if (not (is_dead v)) && Array.unsafe_get stamp2 c <> id then begin
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
       share one precomputed order and never write to the cache. A frozen
       graph allocates no adjacency again, so its spare arrays go. *)
    ignore (topo_order g);
    Array.fill g.pool 0 pool_buckets [];
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
  (* The expected reverse edges, grouped by producer with a counting
     sort over two forward scans: [each emit] calls [emit producer entry]
     for every edge, consumers in ascending id and port order, so each
     group [entries.(start.(p) .. start.(p + 1) - 1)] comes out
     ascending — the order the index yields its live entries in. *)
  let group each =
    let start = Array.make (n + 1) 0 in
    each (fun p _ -> start.(p + 1) <- start.(p + 1) + 1);
    for p = 1 to n do
      start.(p) <- start.(p) + start.(p - 1)
    done;
    let entries = Array.make start.(n) 0 and fill = Array.sub start 0 n in
    each (fun p e ->
        entries.(fill.(p)) <- e;
        fill.(p) <- fill.(p) + 1);
    (start, entries)
  in
  let each_edge ~data emit =
    iter_ids g (fun cid ->
        if data then
          for port = 0 to arity g.kinds.(cid) - 1 do
            let p = g.ins.((3 * cid) + port) in
            if p >= 0 && p < n then emit p (use_entry cid port)
          done
        else begin
          let oa = g.ord.(cid) in
          for j = 0 to g.ord_len.(cid) - 1 do
            if oa.(j) >= 0 && oa.(j) < n then emit oa.(j) cid
          done
        end)
  in
  iter_ids g (fun cid ->
      for port = 0 to arity g.kinds.(cid) - 1 do
        let p = g.ins.((3 * cid) + port) in
        if p < 0 || p >= n then
          errf "use/def index misses data edge %d -> (%d, port %d)" p cid port
      done;
      let oa = g.ord.(cid) in
      for j = 0 to g.ord_len.(cid) - 1 do
        if oa.(j) < 0 || oa.(j) >= n then
          errf "use/def index misses order edge %d -> %d" oa.(j) cid
      done);
  let data_start, data_exp = group (each_edge ~data:true) in
  let order_start, order_exp = group (each_edge ~data:false) in
  (* Calls [miss e] for each expected entry [exp.(lo .. hi - 1)] absent
     from the ascending [indexed.(0 .. len - 1)]. *)
  let missing (exp : int array) lo hi (indexed : int array) len miss =
    let j = ref 0 in
    for i = lo to hi - 1 do
      while !j < len && indexed.(!j) < exp.(i) do
        incr j
      done;
      if !j < len && indexed.(!j) = exp.(i) then incr j else miss exp.(i)
    done
  in
  let ascending p what (a : int array) len =
    for j = 1 to len - 1 do
      if a.(j - 1) >= a.(j) then
        errf "use/def index of node %d has %s entries out of order" p what
    done
  in
  let live = Array.make (Array.fold_left (fun m a -> max m (d_len a)) 0 g.duse) 0 in
  let idx_data = ref 0 and idx_order = ref 0 in
  for p = 0 to n - 1 do
    (* Data uses: the run's order (dead entries included), the counts the
       point queries rely on, then the live entries against the
       recomputed ones. *)
    let a = g.duse.(p) in
    let run_end = header + d_run a and len_end = header + d_len a in
    for j = header + 1 to run_end - 1 do
      if a.(j - 1) > a.(j) then
        errf "use/def index of node %d has data entries out of order" p
    done;
    for j = run_end to len_end - 1 do
      if is_dead a.(j) then
        errf "use/def index of node %d has a dead appended data entry" p
    done;
    let k = duse_sorted_into g p live in
    ascending p "data" live k;
    if d_live a <> k then
      errf "use/def index miscounts the data uses of node %d (%d, real %d)" p
        (d_live a) k;
    if d_dead a > k then
      errf "use/def index of node %d has more dead than live data entries" p;
    ascending p "order" g.ouse.(p) g.ouse_len.(p);
    idx_data := !idx_data + k;
    idx_order := !idx_order + g.ouse_len.(p);
    missing data_exp data_start.(p) data_start.(p + 1) live k (fun e ->
        errf "use/def index misses data edge %d -> (%d, port %d)" p
          (entry_consumer e) (entry_port e));
    missing order_exp order_start.(p) order_start.(p + 1) g.ouse.(p)
      g.ouse_len.(p) (fun cid ->
        errf "use/def index misses order edge %d -> %d" p cid)
  done;
  let exp_data = ref 0 and exp_order = ref 0 in
  iter_ids g (fun cid ->
      exp_data := !exp_data + arity g.kinds.(cid);
      exp_order := !exp_order + g.ord_len.(cid));
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

(* {2 Structure checks}

   One checker states every structure rule; [validate] raises its first
   finding and the verifier in lib/analysis reports them all. It reads
   the arena directly, so a clean graph costs one scan and no record per
   node. Port typing: port 0 of [Ss_out]/[Fe]/[St]/[Del] takes a token
   of the node's own region, every other port a value; a port whose
   producer is gone is reported as a dangling reference only. *)

module D = Fpfa_diag.Diag

let report acc d = acc := d :: !acc

let expect_value g acc id port =
  let p = g.ins.((3 * id) + port) in
  if is_alive g p && not (produces_value g.kinds.(p)) then
    report acc
      (D.error ~node:id "cdfg.port-type"
         "node %d: input port %d expects a value, got a token (node %d)" id
         port p)

let expect_token g acc id port region =
  let p = g.ins.((3 * id) + port) in
  if is_alive g p then
    match g.kinds.(p) with
    | Ss_in r | St r | Del r ->
      if not (String.equal r region) then
        report acc
          (D.error ~node:id "cdfg.token-region"
             "node %d: token of region %s flows into region %s" id r region)
    | Const _ | Binop _ | Unop _ | Mux | Ss_out _ | Fe _ ->
      report acc
        (D.error ~node:id "cdfg.port-type"
           "node %d: input port %d expects a statespace token, got a value \
            (node %d)"
           id port p)

let check_region g acc id region =
  if not (Hashtbl.mem g.region_tbl region) then
    report acc
      (D.error ~node:id "cdfg.region-undeclared"
         "node %d references undeclared region %s" id region)

(* The rules local to one live node: its data and order references
   resolve, its ports carry the right type, its region is declared. *)
let check_node g acc id =
  for port = 0 to arity g.kinds.(id) - 1 do
    let input = g.ins.((3 * id) + port) in
    if not (is_alive g input) then
      report acc
        (D.error ~node:id "cdfg.dangling-ref"
           "node %d: input port %d references removed node %d" id port input)
  done;
  let oa = g.ord.(id) in
  for j = g.ord_len.(id) - 1 downto 0 do
    if not (is_alive g oa.(j)) then
      report acc
        (D.error ~node:id "cdfg.dangling-ref"
           "node %d: order edge references removed node %d" id oa.(j))
  done;
  match g.kinds.(id) with
  | Const _ -> ()
  | Ss_in region -> check_region g acc id region
  | Binop _ ->
    expect_value g acc id 0;
    expect_value g acc id 1
  | Unop _ -> expect_value g acc id 0
  | Mux ->
    expect_value g acc id 0;
    expect_value g acc id 1;
    expect_value g acc id 2
  | Ss_out region ->
    check_region g acc id region;
    expect_token g acc id 0 region
  | Fe region | Del region ->
    check_region g acc id region;
    expect_token g acc id 0 region;
    expect_value g acc id 1
  | St region ->
    check_region g acc id region;
    expect_token g acc id 0 region;
    expect_value g acc id 1;
    expect_value g acc id 2

(* Named outputs ([only] restricts the check to outputs bound to those
   ids): each must name a live value node. *)
let check_outputs g acc only =
  List.iter
    (fun (oname, id) ->
      if only id then
        if not (is_alive g id) then
          report acc
            (D.error ~node:id "cdfg.dangling-ref"
               "named output %s references removed node %d" oname id)
        else if not (produces_value g.kinds.(id)) then
          report acc
            (D.error ~node:id "cdfg.output-invalid"
               "named output %s is bound to node %d, which produces no value"
               oname id))
    (outputs g)

let check_diags g =
  let acc = ref [] in
  (* [Ss_in] / [Ss_out] nodes per region: at most one of each. *)
  let ss_ins = Hashtbl.create 8 and ss_outs = Hashtbl.create 8 in
  let count tbl region =
    Hashtbl.replace tbl region
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl region))
  in
  iter_ids g (fun id ->
      check_node g acc id;
      match g.kinds.(id) with
      | Ss_in region -> count ss_ins region
      | Ss_out region -> count ss_outs region
      | Const _ | Binop _ | Unop _ | Mux | Fe _ | St _ | Del _ -> ());
  (* A dangling reference makes reachability ill-defined: it is reported
     alone rather than with a misleading cycle on top. *)
  let dangling =
    List.exists (fun d -> String.equal d.D.rule "cdfg.dangling-ref") !acc
  in
  check_outputs g acc (fun _ -> true);
  let duplicates what tbl =
    Hashtbl.fold (fun region c l -> if c > 1 then (region, c) :: l else l) tbl []
    |> List.sort compare
    |> List.iter (fun (region, c) ->
           report acc
             (D.error "cdfg.region-duplicate-ss" "region %s has %d %s nodes"
                region c what))
  in
  duplicates "Ss_in" ss_ins;
  duplicates "Ss_out" ss_outs;
  List.iter
    (fun msg -> report acc (D.error "cdfg.index-divergence" "%s" msg))
    (index_errors g);
  if not dangling then begin
    match topo_order g with
    | (_ : id list) -> ()
    | exception Invalid msg -> report acc (D.error "cdfg.cycle" "%s" msg)
  end;
  List.rev !acc

let check_local_diags g touched =
  let acc = ref [] in
  Id_set.iter (fun id -> if is_alive g id then check_node g acc id) touched;
  check_outputs g acc (fun id -> Id_set.mem id touched);
  List.rev !acc

let validate g =
  match check_diags g with [] -> () | d :: _ -> raise (Invalid d.D.message)

let copy g =
  let n = g.next_id in
  let copy_adj arrs lens =
    Array.init n (fun i ->
        if lens.(i) = 0 then no_ints else Array.sub arrs.(i) 0 lens.(i))
  in
  (* Data uses are copied as plain sorted runs of the live entries. *)
  let live_uses p =
    let a = g.duse.(p) in
    let live = d_live a in
    if live = 0 then no_uses
    else if d_run a = live && d_len a = live then Array.sub a 0 (header + live)
    else Array.append [| live; live; live |] (duse_sorted g p)
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
    duse = Array.init n live_uses;
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
    dirty = Bytes.make n '\000';
    def_ids = no_ints;
    def_n = 0;
    use_ids = no_ints;
    use_n = 0;
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
  let total = ref 0 and consts = ref 0 and fetches = ref 0 and stores = ref 0
  and deletes = ref 0 and muxes = ref 0 and multiplies = ref 0 and adds = ref 0
  and other_alu = ref 0 and ss_nodes = ref 0 in
  iter_ids g (fun id ->
      incr total;
      incr
        (match g.kinds.(id) with
        | Const _ -> consts
        | Fe _ -> fetches
        | St _ -> stores
        | Del _ -> deletes
        | Mux -> muxes
        | Ss_in _ | Ss_out _ -> ss_nodes
        | Binop op when Op.is_multiplier_class op -> multiplies
        | Binop (Op.Add | Op.Sub) -> adds
        | Binop _ | Unop _ -> other_alu));
  let depth_of = depth g in
  let critical_path = ref 0 in
  iter_ids g (fun id -> critical_path := max !critical_path (depth_of id + 1));
  {
    total = !total;
    consts = !consts;
    fetches = !fetches;
    stores = !stores;
    deletes = !deletes;
    muxes = !muxes;
    multiplies = !multiplies;
    adds = !adds;
    other_alu = !other_alu;
    ss_nodes = !ss_nodes;
    critical_path = !critical_path;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "total=%d consts=%d FE=%d ST=%d DEL=%d mux=%d mul=%d add/sub=%d other=%d \
     ss=%d critical_path=%d"
    s.total s.consts s.fetches s.stores s.deletes s.muxes s.multiplies s.adds
    s.other_alu s.ss_nodes s.critical_path
