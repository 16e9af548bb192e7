module B = Fpfa_util.Bytesio

exception Corrupt of string

let magic = "FCDF"
let version = 1

let binop_of_code code =
  match List.nth_opt Op.all_binops code with
  | Some op -> op
  | None -> raise (Corrupt (Printf.sprintf "unknown binop code %d" code))

let unop_of_code code =
  match List.nth_opt Op.all_unops code with
  | Some op -> op
  | None -> raise (Corrupt (Printf.sprintf "unknown unop code %d" code))

let write_kind w (kind : Graph.kind) =
  match kind with
  | Graph.Const v ->
    B.u8 w 0;
    B.i64 w v
  | Graph.Binop op ->
    B.u8 w 1;
    B.u8 w (Op.binop_code op)
  | Graph.Unop op ->
    B.u8 w 2;
    B.u8 w (Op.unop_code op)
  | Graph.Mux -> B.u8 w 3
  | Graph.Ss_in region ->
    B.u8 w 4;
    B.str w region
  | Graph.Ss_out region ->
    B.u8 w 5;
    B.str w region
  | Graph.Fe region ->
    B.u8 w 6;
    B.str w region
  | Graph.St region ->
    B.u8 w 7;
    B.str w region
  | Graph.Del region ->
    B.u8 w 8;
    B.str w region

let read_kind r : Graph.kind =
  match B.read_u8 r with
  | 0 -> Graph.Const (B.read_i64 r)
  | 1 -> Graph.Binop (binop_of_code (B.read_u8 r))
  | 2 -> Graph.Unop (unop_of_code (B.read_u8 r))
  | 3 -> Graph.Mux
  | 4 -> Graph.Ss_in (B.read_str r)
  | 5 -> Graph.Ss_out (B.read_str r)
  | 6 -> Graph.Fe (B.read_str r)
  | 7 -> Graph.St (B.read_str r)
  | 8 -> Graph.Del (B.read_str r)
  | tag -> raise (Corrupt (Printf.sprintf "unknown node kind tag %d" tag))

let to_string_mapped g =
  let w = B.writer () in
  (* header *)
  B.str w magic;
  B.u8 w version;
  B.str w (Graph.name g);
  (* regions *)
  B.list w (Graph.regions g) (fun w (region, (info : Graph.region_info)) ->
      B.str w region;
      B.option w info.Graph.size B.i32;
      B.u8 w (if info.Graph.implicit then 1 else 0));
  (* Nodes in topological order with ids renumbered to their position:
     transforms can leave inputs pointing at later-created nodes, so raw
     ids are not decode-safe, but topological positions always are. *)
  let order = Graph.topo_order g in
  let position = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  let pos id = Hashtbl.find position id in
  let nodes = List.map (Graph.node g) order in
  B.list w nodes (fun w (n : Graph.node) ->
      write_kind w n.Graph.kind;
      B.list w (Array.to_list n.Graph.inputs) (fun w id -> B.i32 w (pos id));
      B.list w n.Graph.order_after (fun w id -> B.i32 w (pos id)));
  (* named outputs *)
  B.list w (Graph.outputs g) (fun w (name, id) ->
      B.str w name;
      B.i32 w (pos id));
  (B.contents w, pos)

let to_string g = fst (to_string_mapped g)

(* ------------------------------------------------------------------ *)
(* Canonical form and digest.                                          *)
(*                                                                     *)
(* [to_string] renumbers nodes along [topo_order], which breaks ties   *)
(* by ascending id — so two graphs equal up to id renaming can encode  *)
(* differently. The canonical form instead orders ready nodes by a     *)
(* structural key: a hash of a node's input cone (computed forward)    *)
(* followed by a hash of its use cone (computed backward).             *)
(* Nodes that tie on both cones are interchangeable for the encoding   *)
(* (swapping them is an automorphism of everything the bytes record),  *)
(* so the residual id tie-break cannot leak renaming into the output.  *)
(* Equal bytes imply the graphs are equal up to renaming.              *)
(*                                                                     *)
(* Every pass reads the graph's arrays through its point queries and   *)
(* keeps its own state in id-indexed int arrays: no node records, no   *)
(* per-node lists or tables.                                           *)
(* ------------------------------------------------------------------ *)

let canonical_magic = "FCDC"

(* Cheap 63-bit structural mixing (splitmix-style). The cone hashes only
   break ties in the canonical order; the content digest itself stays an
   MD5 of the canonical bytes. *)
let h_seed = 0x51ed270b

let mix h x =
  let k = x * 0x9e3779b97f4a7c1 in
  let k = k lxor (k lsr 29) in
  let h = (h lxor k) * 0xbf58476d1ce4e5b in
  h lxor (h lsr 31)

let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s

(* A region name as [B.str] writes it: two length bytes, then the name. *)
let mix_region h tag region =
  let n = String.length region in
  mix_string (mix (mix (mix h tag) (n land 0xff)) ((n lsr 8) land 0xff)) region

(* [h_seed] mixed with the bytes [write_kind] emits for the kind, without
   writing them. *)
let kind_hash (kind : Graph.kind) =
  match kind with
  | Graph.Const v ->
    let h = ref (mix h_seed 0) in
    for i = 0 to 7 do
      h := mix !h ((v asr (8 * i)) land 0xff)
    done;
    !h
  | Graph.Binop op -> mix (mix h_seed 1) (Op.binop_code op)
  | Graph.Unop op -> mix (mix h_seed 2) (Op.unop_code op)
  | Graph.Mux -> mix h_seed 3
  | Graph.Ss_in region -> mix_region h_seed 4 region
  | Graph.Ss_out region -> mix_region h_seed 5 region
  | Graph.Fe region -> mix_region h_seed 6 region
  | Graph.St region -> mix_region h_seed 7 region
  | Graph.Del region -> mix_region h_seed 8 region

(* The whole canonical apparatus (hashes and canonical bytes) quotients
   by commutative operand order, exactly as {!Transform.Cse} keys
   commutative binops on the sorted input multiset: graphs the
   simplifier treats as equal must digest equal, or two compiles that
   settle into mirror orientations of one chain would digest apart. *)
let commutes (kind : Graph.kind) =
  match kind with Graph.Binop op -> Op.commutative op | _ -> false

(* A multiset of ints (hashes, positions): filled, then read back in
   ascending order. Reused from node to node. *)
type bag = { mutable items : int array; mutable size : int }

let bag () = { items = Array.make 16 0; size = 0 }

let put b v =
  if b.size = Array.length b.items then begin
    let items = Array.make (2 * b.size) 0 in
    Array.blit b.items 0 items 0 b.size;
    b.items <- items
  end;
  b.items.(b.size) <- v;
  b.size <- b.size + 1

(* Mixes the bag's items into [h] in ascending order and empties it. *)
let mix_bag h b =
  Fpfa_util.Intsort.sort_prefix b.items b.size;
  let h = ref h in
  for i = 0 to b.size - 1 do
    h := mix !h b.items.(i)
  done;
  b.size <- 0;
  !h

(* Calls [f] on each order-only predecessor of [id]: [iter_preds] lists
   the data inputs first. *)
let iter_order_preds g id f =
  let skip = ref (Graph.arity_of g id) in
  Graph.iter_preds g id (fun p -> if !skip > 0 then decr skip else f p)

(* The canonical order as an array of ids. Forward pass: hash of each
   node's input cone (kind, operand cones in port order — sorted for
   commutative binops — and order-predecessor cones as a multiset).
   Backward pass: hash of the use cone (ports distinguish operand
   positions; named outputs anchor the sinks). Then Kahn's algorithm
   pops the smallest (down, up, id) from a binary heap of ready ids;
   every pop is a ready node, so the result is a valid topological
   order. *)
let canonical_order g =
  let bound = Graph.id_bound g in
  let topo = Array.of_list (Graph.topo_order g) in
  let n = Array.length topo in
  let kh = Array.make bound 0 and down = Array.make bound 0 in
  let indeg = Array.make bound 0 in
  let b = bag () in
  let put_down p = put b down.(p) in
  Array.iter
    (fun id ->
      let kind = Graph.kind g id in
      let k = kind_hash kind in
      kh.(id) <- k;
      let h =
        if commutes kind then begin
          let ha = down.(Graph.input g id 0) and hb = down.(Graph.input g id 1) in
          mix (mix k (min ha hb)) (max ha hb)
        end
        else begin
          let h = ref k in
          for port = 0 to Graph.arity kind - 1 do
            h := mix !h down.(Graph.input g id port)
          done;
          !h
        end
      in
      iter_order_preds g id put_down;
      indeg.(id) <- Graph.arity kind + b.size;
      down.(id) <- mix_bag (mix h 0x0) b)
    topo;
  let out_names = Array.make bound [] in
  List.iter
    (fun (name, id) -> out_names.(id) <- name :: out_names.(id))
    (Graph.outputs g);
  let up = Array.make bound 0 in
  (* a commutative consumer sees its operands at interchangeable ports *)
  let put_use cid port =
    let port = if commutes (Graph.kind g cid) then 0 else port in
    put b (mix (mix h_seed port) up.(cid))
  in
  let put_up s = put b up.(s) in
  for i = n - 1 downto 0 do
    let id = topo.(i) in
    Graph.iter_consumers g id put_use;
    let h = mix_bag kh.(id) b in
    Graph.iter_order_successors g id put_up;
    let h = mix (mix_bag (mix h 0x1) b) 0x2 in
    up.(id) <-
      List.fold_left mix_string h (List.sort String.compare out_names.(id))
  done;
  let before a b =
    let da = down.(a) and db = down.(b) in
    if da <> db then da < db
    else
      let ua = up.(a) and ub = up.(b) in
      if ua <> ub then ua < ub else a < b
  in
  let heap = Array.make n 0 and size = ref 0 in
  let push id =
    let i = ref !size in
    incr size;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      before id heap.(parent)
    do
      let parent = (!i - 1) / 2 in
      heap.(!i) <- heap.(parent);
      i := parent
    done;
    heap.(!i) <- id
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= !size then settled := true
      else begin
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else settled := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  Array.iter (fun id -> if indeg.(id) = 0 then push id) topo;
  let release id =
    indeg.(id) <- indeg.(id) - 1;
    if indeg.(id) = 0 then push id
  in
  let release_use cid _port = release cid in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let id = pop () in
    order.(i) <- id;
    Graph.iter_consumers g id release_use;
    Graph.iter_order_successors g id release
  done;
  order

let canonical g =
  let w = B.writer () in
  B.str w canonical_magic;
  B.u8 w version;
  B.str w (Graph.name g);
  B.list w (Graph.regions g) (fun w (region, (info : Graph.region_info)) ->
      B.str w region;
      B.option w info.Graph.size B.i32;
      B.u8 w (if info.Graph.implicit then 1 else 0));
  let order = canonical_order g in
  let pos = Array.make (Graph.id_bound g) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  let b = bag () in
  let put_pos p = put b pos.(p) in
  B.i32 w (Array.length order);
  Array.iter
    (fun id ->
      let kind = Graph.kind g id in
      write_kind w kind;
      let arity = Graph.arity kind in
      B.i32 w arity;
      if commutes kind then begin
        let pa = pos.(Graph.input g id 0) and pb = pos.(Graph.input g id 1) in
        B.i32 w (min pa pb);
        B.i32 w (max pa pb)
      end
      else
        for port = 0 to arity - 1 do
          B.i32 w pos.(Graph.input g id port)
        done;
      (* order-after lists carry insertion order; positions sorted so the
         bytes only depend on the edge set *)
      iter_order_preds g id put_pos;
      Fpfa_util.Intsort.sort_prefix b.items b.size;
      B.i32 w b.size;
      for i = 0 to b.size - 1 do
        B.i32 w b.items.(i)
      done;
      b.size <- 0)
    order;
  B.list w (Graph.outputs g) (fun w (name, id) ->
      B.str w name;
      B.i32 w pos.(id));
  B.contents w

let digest g = Digest.to_hex (Digest.string (canonical g))

let of_string_mapped data =
  try
    let r = B.reader data in
    if B.read_str r <> magic then raise (Corrupt "bad magic");
    let v = B.read_u8 r in
    if v <> version then raise (Corrupt (Printf.sprintf "unknown version %d" v));
    let name = B.read_str r in
    let g = Graph.create name in
    let regions =
      B.read_list r (fun r ->
          let region = B.read_str r in
          let size = B.read_option r B.read_i32 in
          let implicit = B.read_u8 r = 1 in
          (region, { Graph.size; implicit }))
    in
    List.iter (fun (region, info) -> Graph.declare_region g region info) regions;
    (* Nodes were written in ascending id order; Graph.add assigns fresh
       ids 0,1,2,... so a remapping table translates encoded ids. *)
    let raw_nodes =
      B.read_list r (fun r ->
          let kind = read_kind r in
          let inputs = B.read_list r B.read_i32 in
          let order_after = B.read_list r B.read_i32 in
          (kind, inputs, order_after))
    in
    let remap = Hashtbl.create 64 in
    let translate pos =
      match Hashtbl.find_opt remap pos with
      | Some id -> id
      | None ->
        raise (Corrupt (Printf.sprintf "forward reference to node %d" pos))
    in
    List.iteri
      (fun pos (kind, inputs, _) ->
        let id = Graph.add g kind (List.map translate inputs) in
        Hashtbl.replace remap pos id)
      raw_nodes;
    List.iteri
      (fun pos (_, _, order_after) ->
        List.iter
          (fun before ->
            Graph.add_order g (translate pos) ~after:(translate before))
          order_after)
      raw_nodes;
    let outputs =
      B.read_list r (fun r ->
          let name = B.read_str r in
          let id = B.read_i32 r in
          (name, id))
    in
    List.iter (fun (name, id) -> Graph.set_output g name (translate id)) outputs;
    if not (B.at_end r) then raise (Corrupt "trailing bytes");
    (g, translate)
  with
  | B.Corrupt msg -> raise (Corrupt msg)
  | Graph.Invalid msg -> raise (Corrupt msg)

let of_string data = fst (of_string_mapped data)

let to_file g path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
