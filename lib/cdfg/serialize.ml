module B = Fpfa_util.Bytesio

exception Corrupt of string

let magic = "FCDF"
let version = 1

let binop_code op =
  match
    Fpfa_util.Listx.index_of (fun candidate -> candidate = op) Op.all_binops
  with
  | Some i -> i
  | None -> assert false

let binop_of_code code =
  match List.nth_opt Op.all_binops code with
  | Some op -> op
  | None -> raise (Corrupt (Printf.sprintf "unknown binop code %d" code))

let unop_code op =
  match
    Fpfa_util.Listx.index_of (fun candidate -> candidate = op) Op.all_unops
  with
  | Some i -> i
  | None -> assert false

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
    B.u8 w (binop_code op)
  | Graph.Unop op ->
    B.u8 w 2;
    B.u8 w (unop_code op)
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
(* structural key: the MD5 of a node's input cone (computed forward)   *)
(* concatenated with the MD5 of its use cone (computed backward).      *)
(* Nodes that tie on both cones are interchangeable for the encoding   *)
(* (swapping them is an automorphism of everything the bytes record),  *)
(* so the residual id tie-break cannot leak renaming into the output.  *)
(* The mapping cache keys on this digest: equal bytes imply the graphs *)
(* are equal up to renaming, so a cache hit returns a mapping of the   *)
(* very same graph.                                                    *)
(* ------------------------------------------------------------------ *)

let canonical_magic = "FCDC"

let kind_bytes kind =
  let w = B.writer () in
  write_kind w kind;
  B.contents w

(* Cheap 63-bit structural mixing (splitmix-style). The cone hashes only
   break ties in the canonical order; the content digest itself stays an
   MD5 of the canonical bytes. Per-node MD5 contexts dominated digest
   time on large graphs — int mixing makes both passes allocation-free. *)
let h_seed = 0x51ed270b

let mix h x =
  let k = x * 0x9e3779b97f4a7c1 in
  let k = k lxor (k lsr 29) in
  let h = (h lxor k) * 0xbf58476d1ce4e5b in
  h lxor (h lsr 31)

let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s
let kind_hash kind = mix_string h_seed (kind_bytes kind)

(* The whole canonical apparatus (hashes, canonical bytes, {!renumber})
   quotients by commutative operand order, exactly as {!Transform.Cse}
   keys commutative binops on the sorted input multiset: graphs the
   simplifier treats as equal must digest equal, or two compiles could
   settle into mirror orientations of one chain and spuriously miss the
   mapping cache (or renumber to different jobs). *)
let commutes (kind : Graph.kind) =
  match kind with Graph.Binop op -> Op.commutative op | _ -> false

(* Forward pass: hash of each node's input cone (kind, operand cones in
   port order — sorted for commutative binops — and order-predecessor
   cones as a multiset). *)
let down_hashes g =
  let bound = Graph.id_bound g in
  let down = Array.make bound 0 in
  List.iter
    (fun id ->
      let n = Graph.node g id in
      let h = kind_hash n.Graph.kind in
      let h =
        match n.Graph.inputs with
        | [| a; b |] when commutes n.Graph.kind ->
          let ha = down.(a) and hb = down.(b) in
          let lo = min ha hb and hi = max ha hb in
          mix (mix h lo) hi
        | inputs -> Array.fold_left (fun h i -> mix h down.(i)) h inputs
      in
      let h = mix h 0x0 in
      let h =
        List.fold_left mix h
          (List.sort Int.compare
             (List.map (fun i -> down.(i)) n.Graph.order_after))
      in
      down.(id) <- h)
    (Graph.topo_order g);
  down

let canonical_order g =
  let bound = Graph.id_bound g in
  let topo = Graph.topo_order g in
  let down = down_hashes g in
  (* backward pass: hash of the use cone (ports distinguish operand
     positions; named outputs anchor the sinks) *)
  let out_names = Array.make bound [] in
  List.iter
    (fun (name, id) -> out_names.(id) <- name :: out_names.(id))
    (Graph.outputs g);
  let up = Array.make bound 0 in
  List.iter
    (fun id ->
      let n = Graph.node g id in
      let h = kind_hash n.Graph.kind in
      let h =
        List.fold_left mix h
          (List.sort Int.compare
             (List.map
                (fun (cid, port) ->
                  (* a commutative consumer sees its operands at
                     interchangeable ports *)
                  let port = if commutes (Graph.kind g cid) then 0 else port in
                  mix (mix h_seed port) up.(cid))
                (Graph.consumers_of g id)))
      in
      let h = mix h 0x1 in
      let h =
        List.fold_left mix h
          (List.sort Int.compare
             (List.map (fun s -> up.(s)) (Graph.order_successors g id)))
      in
      let h = mix h 0x2 in
      let h =
        List.fold_left
          (fun h name -> mix_string h name)
          h
          (List.sort String.compare out_names.(id))
      in
      up.(id) <- h)
    (List.rev topo);
  (* Kahn's algorithm popping the smallest (key, id); every pop is a
     ready node, so the result is a valid topological order. *)
  let module Ready = Set.Make (struct
    type t = int * int * int

    let compare (da, ua, ia) (db, ub, ib) =
      match Int.compare da db with
      | 0 -> ( match Int.compare ua ub with 0 -> Int.compare ia ib | c -> c)
      | c -> c
  end) in
  let key id = (down.(id), up.(id), id) in
  let indeg = Array.make bound 0 in
  Graph.iter_ids g (fun id ->
      indeg.(id) <-
        Graph.arity_of g id + List.length (Graph.order_after g id));
  let ready = ref Ready.empty in
  Graph.iter_ids g (fun id ->
      if indeg.(id) = 0 then ready := Ready.add (key id) !ready);
  let order = ref [] in
  let release id =
    indeg.(id) <- indeg.(id) - 1;
    if indeg.(id) = 0 then ready := Ready.add (key id) !ready
  in
  while not (Ready.is_empty !ready) do
    let ((_, _, id) as elt) = Ready.min_elt !ready in
    ready := Ready.remove elt !ready;
    order := id :: !order;
    List.iter (fun (cid, _port) -> release cid) (Graph.consumers_of g id);
    List.iter release (Graph.order_successors g id)
  done;
  List.rev !order

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
  let position = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  let pos id = Hashtbl.find position id in
  B.list w (List.map (Graph.node g) order) (fun w (n : Graph.node) ->
      write_kind w n.Graph.kind;
      let input_pos = List.map pos (Array.to_list n.Graph.inputs) in
      let input_pos =
        if commutes n.Graph.kind then List.sort Int.compare input_pos
        else input_pos
      in
      B.list w input_pos (fun w p -> B.i32 w p);
      (* order_after lists carry insertion order; positions sorted so the
         bytes only depend on the edge set *)
      B.list w
        (List.sort Int.compare (List.map pos n.Graph.order_after))
        B.i32);
  B.list w (Graph.outputs g) (fun w (name, id) ->
      B.str w name;
      B.i32 w (pos id));
  B.contents w

let digest g = Digest.to_hex (Digest.string (canonical g))

(* Rebuilds [g] with ids renumbered along the canonical order, regions and
   outputs sorted by name, and order edges inserted in ascending mapped
   position. Isomorphic graphs renumber to graphs that are equal
   member-for-member, so the (deterministic) mapping phases turn them
   into byte-identical jobs. *)
let renumber g =
  let order = canonical_order g in
  let out = Graph.create (Graph.name g) in
  List.iter
    (fun (region, info) -> Graph.declare_region out region info)
    (List.sort compare (Graph.regions g));
  let map = Array.make (Graph.id_bound g) (-1) in
  List.iter
    (fun id ->
      let n = Graph.node g id in
      let inputs = List.map (fun i -> map.(i)) (Array.to_list n.Graph.inputs) in
      (* commutative operands in ascending renumbered position: mirror
         orientations of one chain rebuild to the very same graph *)
      let inputs =
        if commutes n.Graph.kind then List.sort Int.compare inputs else inputs
      in
      map.(id) <- Graph.add out n.Graph.kind inputs)
    order;
  List.iter
    (fun id ->
      List.iter
        (fun p -> Graph.add_order out map.(id) ~after:p)
        (List.sort Int.compare
           (List.map (fun p -> map.(p)) (Graph.order_after g id))))
    order;
  List.iter
    (fun (name, id) -> Graph.set_output out name map.(id))
    (List.sort compare (Graph.outputs g));
  out

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
