(* Model-based test of the arena-backed Cdfg.Graph: random mutation
   sequences (add / add_order / set_inputs / replace_uses / remove /
   remove_order / set_output) are replayed against a naive assoc-list
   reference model, and after {e every} step the graph must agree with
   the model on the node set, kinds, data edges, order edges, the
   use/def index (consumers, order successors, use counts and the point
   queries over them) and the named outputs — plus the index self-check,
   which also requires every reverse list to be strictly ascending. The
   model is deliberately the dumbest possible implementation of the
   documented semantics; any divergence is an arena bug (tombstones,
   free-list recycling, packed duse entries, sorted inserts, deletes and
   merges).

   Edges are kept id-ordered (producers and order-predecessors always
   have smaller ids than their consumer), so every generated graph is
   acyclic by construction and the final topo/validate checks must
   succeed. *)

module Q = QCheck
open Cdfg

type mnode = {
  mkind : Graph.kind;
  mutable minputs : Graph.id list;
  mutable mord : Graph.id list;
      (* oldest-first, mirroring the arena's append-only [ord] storage;
         [Graph.order_after] observes the reverse (newest first) *)
}

type model = {
  mutable mnodes : (Graph.id * mnode) list;  (* ascending id *)
  mutable mouts : (string * Graph.id) list;  (* unique names *)
}

let live m = List.map fst m.mnodes
let find m id = List.assoc id m.mnodes

let m_use_count m id =
  List.fold_left
    (fun acc (_, n) ->
      acc + List.length (List.filter (fun i -> i = id) n.minputs))
    0 m.mnodes
  + List.length (List.filter (fun (_, v) -> v = id) m.mouts)

(* (consumer, port) pairs; mnodes ascending + ports ascending = the
   ascending order Graph.consumers_of promises. *)
let m_consumers m id =
  List.concat_map
    (fun (cid, n) ->
      List.mapi (fun p i -> (p, i)) n.minputs
      |> List.filter (fun (_, i) -> i = id)
      |> List.map (fun (p, _) -> (cid, p)))
    m.mnodes

let m_order_successors m id =
  List.filter_map
    (fun (cid, n) -> if List.mem id n.mord then Some cid else None)
    m.mnodes

let pick xs r = List.nth xs (r mod List.length xs)

(* One mutation driven by one random integer, applied to graph and model
   in lockstep. Unapplicable ops (e.g. remove with no dead node) are
   skipped rather than failing, so any integer list is a valid script. *)
let step g m code =
  let ids = live m in
  let n_live = List.length ids in
  let op = code mod 8 in
  let r = code / 8 in
  match op with
  | 0 | 1 | 6 ->
    (* add (three opcodes: growth must outpace removal) *)
    let kind, inputs =
      if n_live = 0 then (Graph.Const (r mod 256), [])
      else
        match r mod 4 with
        | 0 -> (Graph.Const (r / 4 mod 256), [])
        | 1 -> (Graph.Unop Op.Neg, [ pick ids (r / 4) ])
        | 2 -> (Graph.Binop Op.Add, [ pick ids (r / 4); pick ids (r / 13) ])
        | _ ->
          ( Graph.Mux,
            [ pick ids (r / 4); pick ids (r / 13); pick ids (r / 29) ] )
    in
    let id = Graph.add g kind inputs in
    m.mnodes <- m.mnodes @ [ (id, { mkind = kind; minputs = inputs; mord = [] }) ]
  | 2 ->
    (* add_order, predecessor = smaller id *)
    if n_live >= 2 then begin
      let a = pick ids r and b = pick ids (r / 7) in
      if a <> b then begin
        let n = max a b and aft = min a b in
        Graph.add_order g n ~after:aft;
        let mn = find m n in
        if not (List.mem aft mn.mord) then mn.mord <- mn.mord @ [ aft ]
      end
    end
  | 3 ->
    (* set_inputs: same arity, producers drawn from smaller ids *)
    if n_live > 0 then begin
      let n = pick ids r in
      let mn = find m n in
      let a = List.length mn.minputs in
      let smaller = List.filter (fun i -> i < n) ids in
      if a > 0 && smaller <> [] then begin
        let ins = List.init a (fun k -> pick smaller (r / (7 + (3 * k)))) in
        Graph.set_inputs g n ins;
        mn.minputs <- ins
      end
    end
  | 4 ->
    (* replace_uses old ~by with by <= old (keeps edges id-ordered; by =
       old exercises the degenerate no-structural-change branch). Odd
       codes prefer a [by] that already has data uses, so its entries
       and the moved ones interleave by consumer id: the merge path. *)
    if n_live > 0 then begin
      let old = pick ids r in
      let le = List.filter (fun i -> i <= old) ids in
      let used = List.filter (fun i -> i < old && m_consumers m i <> []) le in
      let by =
        if r mod 2 = 1 && used <> [] then pick used (r / 7) else pick le (r / 7)
      in
      Graph.replace_uses g old ~by;
      if by <> old then begin
        List.iter
          (fun (cid, n) ->
            n.minputs <-
              List.map (fun i -> if i = old then by else i) n.minputs;
            if List.mem old n.mord then begin
              n.mord <- List.filter (fun i -> i <> old) n.mord;
              (* re-pointed order edges deduplicate and never self-loop *)
              if by <> cid && not (List.mem by n.mord) then
                n.mord <- n.mord @ [ by ]
            end)
          m.mnodes;
        m.mouts <-
          List.map (fun (k, v) -> (k, if v = old then by else v)) m.mouts
      end
    end
  | 5 ->
    (* remove a node without uses (order successors don't block removal:
       their edges to the removed node are dropped) *)
    let dead = List.filter (fun id -> m_use_count m id = 0) ids in
    if dead <> [] then begin
      let n = pick dead r in
      Graph.remove g n;
      m.mnodes <- List.filter (fun (id, _) -> id <> n) m.mnodes;
      List.iter
        (fun (_, mn) -> mn.mord <- List.filter (fun i -> i <> n) mn.mord)
        m.mnodes
    end
  | _ ->
    if n_live > 0 then
      if r mod 2 = 0 then begin
        let name = Printf.sprintf "out%d" (r / 2 mod 3) in
        let v = pick ids (r / 7) in
        Graph.set_output g name v;
        m.mouts <- (name, v) :: List.remove_assoc name m.mouts
      end
      else begin
        (* remove_order of a possibly-absent edge (the no-op path must
           leave both sides untouched) *)
        let a = pick ids (r / 2) and b = pick ids (r / 11) in
        Graph.remove_order g a ~after:b;
        let mn = find m a in
        mn.mord <- List.filter (fun i -> i <> b) mn.mord
      end

let fail fmt = Q.Test.fail_reportf fmt

let check_agreement ~at g m =
  let ids = live m in
  if Graph.node_ids g <> ids then
    fail "step %d: node_ids %s, model %s" at
      (String.concat "," (List.map string_of_int (Graph.node_ids g)))
      (String.concat "," (List.map string_of_int ids));
  if Graph.node_count g <> List.length ids then
    fail "step %d: node_count %d, model %d" at (Graph.node_count g)
      (List.length ids);
  List.iter
    (fun (id, mn) ->
      if Graph.kind g id <> mn.mkind then fail "step %d: kind of %d" at id;
      if Graph.inputs g id <> mn.minputs then
        fail "step %d: inputs of %d" at id;
      if Graph.order_after g id <> List.rev mn.mord then
        fail "step %d: order_after of %d" at id;
      if Graph.use_count g id <> m_use_count m id then
        fail "step %d: use_count of %d: graph %d, model %d" at id
          (Graph.use_count g id) (m_use_count m id);
      let consumers = m_consumers m id in
      if Graph.consumers_of g id <> consumers then
        fail "step %d: consumers_of %d" at id;
      let seen = ref [] in
      Graph.iter_consumers g id (fun c p -> seen := (c, p) :: !seen);
      if List.rev !seen <> consumers then
        fail "step %d: iter_consumers %d" at id;
      if Graph.data_use_count g id <> List.length consumers then
        fail "step %d: data_use_count of %d" at id;
      let sole = match consumers with [ (c, _) ] -> c | _ -> -1 in
      if Graph.sole_consumer g id <> sole then
        fail "step %d: sole_consumer of %d: graph %d, model %d" at id
          (Graph.sole_consumer g id) sole;
      if Graph.order_successors g id <> m_order_successors m id then
        fail "step %d: order_successors of %d" at id)
    m.mnodes;
  let souts = List.sort (fun (a, _) (b, _) -> String.compare a b) m.mouts in
  if Graph.outputs g <> souts then fail "step %d: named outputs" at;
  match Graph.index_errors g with
  | [] -> ()
  | e :: _ -> fail "step %d: index_errors: %s" at e

let run_script codes =
  let g = Graph.create "model" in
  let m = { mnodes = []; mouts = [] } in
  List.iteri
    (fun at code ->
      step g m code;
      check_agreement ~at g m)
    codes;
  (g, m)

let prop_model codes =
  let g, m = run_script codes in
  (* Edges are id-ordered, so the final graph must be acyclic and fully
     valid whatever the script did. *)
  Graph.validate g;
  if List.length (Graph.topo_order g) <> Graph.node_count g then
    fail "topo_order length <> node_count";
  (* A copy is an independent equal graph; freezing it must not disturb
     any read and must reject every mutator. *)
  let c = Graph.copy g in
  check_agreement ~at:(-1) c m;
  Graph.freeze c;
  check_agreement ~at:(-2) c m;
  (match Graph.add c (Graph.Const 1) [] with
  | _ -> fail "frozen copy accepted add"
  | exception Graph.Invalid _ -> ());
  if Graph.frozen g then fail "freezing the copy froze the original";
  true

let qcheck_model =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:120 ~name:"arena agrees with naive model"
       (Q.list_of_size (Q.Gen.int_range 1 60) (Q.int_bound 1_000_000))
       prop_model)

(* A directed script hitting the rarer interleavings the uniform
   generator reaches with low probability: replace into a node that
   already carries the replacement as an order edge, remove after
   replace (freeing the dead node), then reuse the freed adjacency
   capacity. Deterministic, so a regression points at one invariant. *)
let test_directed_churn () =
  let g = Graph.create "churn" in
  let m = { mnodes = []; mouts = [] } in
  let add kind inputs =
    let id = Graph.add g kind inputs in
    m.mnodes <-
      m.mnodes @ [ (id, { mkind = kind; minputs = inputs; mord = [] }) ];
    id
  in
  let a = add (Graph.Const 1) [] in
  let b = add (Graph.Const 2) [] in
  let s = add (Graph.Binop Op.Add) [ a; b ] in
  let t = add (Graph.Binop Op.Add) [ b; b ] in
  Graph.add_order g t ~after:a;
  (find m t).mord <- [ a ];
  Graph.add_order g t ~after:b;
  (find m t).mord <- [ a; b ];
  (* t already orders after b: re-pointing b's uses to a must dedup *)
  Graph.replace_uses g b ~by:a;
  (find m s).minputs <- [ a; a ];
  (find m t).minputs <- [ a; a ];
  (find m t).mord <- [ a ];
  check_agreement ~at:0 g m;
  Graph.remove g b;
  m.mnodes <- List.filter (fun (id, _) -> id <> b) m.mnodes;
  check_agreement ~at:1 g m;
  (* grow into the freed capacity *)
  let u = add (Graph.Mux) [ a; s; t ] in
  Graph.add_order g u ~after:s;
  (find m u).mord <- [ s ];
  check_agreement ~at:2 g m;
  Graph.validate g

(* [replace_uses] merges the moved uses into [by]'s sorted entries. The
   script covers each shape of that merge: consumers interleaving by id,
   one consumer reading both nodes (adjacent entries), moved uses all
   below or all above [by]'s, a merge that outgrows [by]'s array, and a
   [by] with no uses. *)
let test_interleaved_merge () =
  let g = Graph.create "merge" in
  let m = { mnodes = []; mouts = [] } in
  let add kind inputs =
    let id = Graph.add g kind inputs in
    m.mnodes <-
      m.mnodes @ [ (id, { mkind = kind; minputs = inputs; mord = [] }) ];
    id
  in
  let at = ref 0 in
  let replace old ~by =
    Graph.replace_uses g old ~by;
    List.iter
      (fun (_, n) ->
        n.minputs <- List.map (fun i -> if i = old then by else i) n.minputs)
      m.mnodes;
    check_agreement ~at:!at g m;
    incr at
  in
  let a = add (Graph.Const 1) [] in
  let b = add (Graph.Const 2) [] in
  let c = add (Graph.Const 3) [] in
  let d = add (Graph.Const 4) [] in
  let neg x = ignore (add (Graph.Unop Op.Neg) [ x ]) in
  neg d;
  (* a: 5, 7, 9 and port 1 of 10; b: 6, 8 and port 0 of 10 *)
  List.iter neg [ a; b; a; b; a ];
  ignore (add (Graph.Binop Op.Add) [ b; a ]);
  replace b ~by:a;
  neg c;
  replace a ~by:c;
  (* eight uses onto [d]'s one, above it: append past its capacity *)
  replace c ~by:d;
  replace d ~by:b;
  Graph.validate g

(* {2 Hubs}

   A hub is a producer with thousands of data uses. Its index entries take
   paths a short list rarely does: dead entries left in place by deletes,
   entries appended by [replace_uses] merges and by rewiring, and the
   restores of sorted order once either grows. Each script starts from
   [hub_uses] uses of one constant, read on every port of consumers of
   every arity, and interleaves [remove], [set_inputs], [replace_uses]
   into and out of the hub, new uses and [drain_dirty]. The model keeps
   each live node's inputs in an id-indexed array (so a producer's
   consumers come out of one ascending scan) and the journal the
   documented semantics predict. *)

let hub_uses = 1200

type hub_model = {
  mutable hins : Graph.id array option array;  (* inputs of live ids *)
  mutable hdefs : Graph.Id_set.t;  (* expected def-dirty ids *)
  mutable huses : Graph.Id_set.t;  (* expected use-dirty ids *)
}

let h_live h =
  let acc = ref [] in
  for id = Array.length h.hins - 1 downto 0 do
    if h.hins.(id) <> None then acc := id :: !acc
  done;
  !acc

let h_consumers h p =
  let acc = ref [] in
  Array.iteri
    (fun cid ins ->
      match ins with
      | Some ins ->
        Array.iteri (fun port i -> if i = p then acc := (cid, port) :: !acc) ins
      | None -> ())
    h.hins;
  List.rev !acc

let h_add g h kind inputs =
  let id = Graph.add g kind inputs in
  if id >= Array.length h.hins then begin
    let hins = Array.make (2 * (id + 1)) None in
    Array.blit h.hins 0 hins 0 (Array.length h.hins);
    h.hins <- hins
  end;
  h.hins.(id) <- Some (Array.of_list inputs);
  h.hdefs <- Graph.Id_set.add id h.hdefs;
  id

(* The hub, four other constants, and consumers reading the hub on
   every port shape until it has [hub_uses] uses. *)
let hub_setup () =
  let g = Graph.create "hub" in
  let h =
    { hins = [||]; hdefs = Graph.Id_set.empty; huses = Graph.Id_set.empty }
  in
  let hub = h_add g h (Graph.Const 0) [] in
  let others = List.init 4 (fun i -> h_add g h (Graph.Const (i + 1)) []) in
  let uses = ref 0 and i = ref 0 in
  while !uses < hub_uses do
    let other = List.nth others (!i mod 4) in
    let kind, inputs, n =
      match !i mod 4 with
      | 0 -> (Graph.Unop Op.Neg, [ hub ], 1)
      | 1 -> (Graph.Binop Op.Add, [ hub; other ], 1)
      | 2 -> (Graph.Binop Op.Sub, [ other; hub ], 1)
      | _ -> (Graph.Mux, [ other; hub; hub ], 2)
    in
    ignore (h_add g h kind inputs);
    uses := !uses + n;
    incr i
  done;
  (g, h, hub :: others)

let hub_step ~at g h producers code =
  let op = code mod 10 and r = code / 10 in
  let live = h_live h in
  let consumers = List.filter (fun id -> not (List.mem id producers)) live in
  let pick xs k = List.nth xs (k mod List.length xs) in
  match op with
  | 0 | 1 | 2 | 3 ->
    (* remove a consumer: every consumer is unused *)
    if consumers <> [] then begin
      let n = pick consumers r in
      Graph.remove g n;
      Array.iter
        (fun p -> h.huses <- Graph.Id_set.add p h.huses)
        (Option.get h.hins.(n));
      h.hins.(n) <- None
    end
  | 4 | 5 ->
    (* rewire a consumer onto constants drawn from the producers *)
    if consumers <> [] then begin
      let n = pick consumers r in
      let old = Option.get h.hins.(n) in
      let ins = Array.mapi (fun k _ -> pick producers (r / (5 + k))) old in
      Graph.set_inputs g n (Array.to_list ins);
      Array.iter (fun p -> h.huses <- Graph.Id_set.add p h.huses) old;
      h.hdefs <- Graph.Id_set.add n h.hdefs;
      h.hins.(n) <- Some ins
    end
  | 6 | 7 ->
    (* merge one producer's uses into another: into the hub (6), or the
       hub's whole list onto another constant (7) *)
    let old, by =
      if op = 6 then (pick (List.tl producers) r, List.hd producers)
      else (List.hd producers, pick (List.tl producers) r)
    in
    Graph.replace_uses g old ~by;
    List.iter
      (fun (c, port) ->
        (Option.get h.hins.(c)).(port) <- by;
        h.hdefs <- Graph.Id_set.add c h.hdefs)
      (h_consumers h old);
    h.huses <- Graph.Id_set.add old h.huses
  | 8 ->
    let p = pick producers r and q = pick producers (r / 5) in
    ignore
      (h_add g h
         (if r mod 2 = 0 then Graph.Unop Op.Neg else Graph.Binop Op.Add)
         (if r mod 2 = 0 then [ p ] else [ p; q ]))
  | _ ->
    let defs, uses = Graph.drain_dirty g in
    let expected s = Graph.Id_set.elements s in
    if defs <> expected h.hdefs || uses <> expected h.huses then
      fail "step %d: drain_dirty: defs [%s] uses [%s], model defs [%s] uses [%s]"
        at
        (String.concat "," (List.map string_of_int defs))
        (String.concat "," (List.map string_of_int uses))
        (String.concat "," (List.map string_of_int (expected h.hdefs)))
        (String.concat "," (List.map string_of_int (expected h.huses)));
    h.hdefs <- Graph.Id_set.empty;
    h.huses <- Graph.Id_set.empty

let check_producers ~at g h producers =
  List.iter
    (fun p ->
      let consumers = h_consumers h p in
      if Graph.consumers_of g p <> consumers then
        fail "step %d: consumers_of hub %d" at p;
      let seen = ref [] in
      Graph.iter_consumers g p (fun c port -> seen := (c, port) :: !seen);
      if List.rev !seen <> consumers then
        fail "step %d: iter_consumers hub %d" at p;
      let n = List.length consumers in
      if Graph.data_use_count g p <> n || Graph.use_count g p <> n then
        fail "step %d: use counts of hub %d: %d/%d, model %d" at p
          (Graph.data_use_count g p) (Graph.use_count g p) n;
      let sole = match consumers with [ (c, _) ] -> c | _ -> -1 in
      if Graph.sole_consumer g p <> sole then
        fail "step %d: sole_consumer of hub %d: graph %d, model %d" at p
          (Graph.sole_consumer g p) sole)
    producers;
  match Graph.index_errors g with
  | [] -> ()
  | e :: _ -> fail "step %d: index_errors: %s" at e

let prop_hub codes =
  let g, h, producers = hub_setup () in
  if Graph.data_use_count g (List.hd producers) < 1000 then
    fail "the hub has only %d uses" (Graph.data_use_count g (List.hd producers));
  check_producers ~at:(-1) g h producers;
  List.iteri
    (fun at code ->
      hub_step ~at g h producers code;
      check_producers ~at g h producers)
    codes;
  Graph.validate g;
  let c = Graph.copy g in
  Graph.freeze c;
  check_producers ~at:(-2) c h producers;
  true

(* Not shrunk: a script replays 1,200 uses per step, so shrinking a
   failing one takes minutes; the failure names its step instead. *)
let qcheck_hub =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:12 ~name:"hub index agrees with model"
       (Q.set_shrink Q.Shrink.nil
          (Q.list_of_size (Q.Gen.int_range 50 400) (Q.int_bound 1_000_000)))
       prop_hub)

(* Readers of a frozen graph never write: with the hub's list holding
   dead entries and unsorted appends, [copy], [validate] and
   [topo_order] succeed and leave what the graph reads as, and its
   marshalled bytes, unchanged. *)
let test_frozen_hub () =
  let g = Graph.create "frozen-hub" in
  let hub = Graph.add g (Graph.Const 0) [] and alt = Graph.add g (Graph.Const 1) [] in
  (* hub readers at even positions, [alt] readers between them *)
  let readers =
    List.init 1200 (fun i ->
        Graph.add g (Graph.Unop Op.Neg) [ (if i mod 40 = 1 then alt else hub) ])
  in
  (* dead entries: a few hub readers go *)
  List.iteri (fun i id -> if i mod 40 = 10 then Graph.remove g id) readers;
  (* appends: [alt]'s readers interleave with the hub's *)
  Graph.replace_uses g alt ~by:hub;
  Graph.validate g;
  Graph.freeze g;
  let image = Marshal.to_string g [] in
  let consumers = Graph.consumers_of g hub in
  let bytes = Serialize.to_string g in
  if List.length consumers <> 1200 - 30 then
    Alcotest.failf "hub has %d uses" (List.length consumers);
  let c = Graph.copy g in
  Graph.validate g;
  ignore (Graph.topo_order g);
  Alcotest.(check bool) "consumers_of unchanged" true
    (Graph.consumers_of g hub = consumers);
  Alcotest.(check string) "serialisation unchanged" bytes (Serialize.to_string g);
  Alcotest.(check bool) "copy reads the same uses" true
    (Graph.consumers_of c hub = consumers);
  Alcotest.(check string) "copy serialises the same" bytes (Serialize.to_string c);
  Alcotest.(check bool) "no reader wrote to the graph" true
    (String.equal image (Marshal.to_string g []))

let suite =
  [
    qcheck_model;
    Alcotest.test_case "directed churn script" `Quick test_directed_churn;
    Alcotest.test_case "interleaved merge" `Quick test_interleaved_merge;
    qcheck_hub;
    Alcotest.test_case "frozen hub reads write nothing" `Quick test_frozen_hub;
  ]
