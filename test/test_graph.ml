(* Unit tests for the CDFG graph structure. *)

module G = Cdfg.Graph
module Op = Cdfg.Op

let make_region g name size =
  G.declare_region g name { G.size = Some size; implicit = false }

let test_add_and_access () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let add = G.add g (G.Binop Op.Add) [ c1; c2 ] in
  Alcotest.(check int) "count" 3 (G.node_count g);
  Alcotest.(check (list int)) "inputs" [ c1; c2 ] (G.inputs g add);
  Alcotest.(check bool) "mem" true (G.mem g add);
  Alcotest.(check bool) "kind" true (G.kind g add = G.Binop Op.Add)

let test_arity_checked () =
  let g = G.create "t" in
  let c = G.add g (G.Const 1) [] in
  (match G.add g (G.Binop Op.Add) [ c ] with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "arity violation accepted");
  match G.add g G.Mux [ c; c ] with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "mux arity violation accepted"

let test_dangling_rejected () =
  let g = G.create "t" in
  let c = G.add g (G.Const 1) [] in
  (match G.add g (G.Binop Op.Add) [ c; 999 ] with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "dangling input accepted");
  match G.add_order g c ~after:998 with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "dangling order edge accepted"

let test_replace_uses () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let add = G.add g (G.Binop Op.Add) [ c1; c1 ] in
  G.set_output g "r" add;
  G.replace_uses g c1 ~by:c2;
  Alcotest.(check (list int)) "both ports rewritten" [ c2; c2 ] (G.inputs g add);
  G.replace_uses g add ~by:c2;
  Alcotest.(check (list (pair string int))) "output rewritten" [ ("r", c2) ] (G.outputs g)

let test_remove () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let add = G.add g (G.Binop Op.Add) [ c1; c2 ] in
  (match G.remove g c1 with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "removed a node with uses");
  G.remove g add;
  Alcotest.(check int) "two left" 2 (G.node_count g);
  G.remove g c1;
  Alcotest.(check int) "one left" 1 (G.node_count g)

let test_order_edges () =
  let g = G.create "t" in
  make_region g "r" 4;
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let fe = G.add g (G.Fe "r") [ ss; zero ] in
  let v = G.add g (G.Const 7) [] in
  let st = G.add g (G.St "r") [ ss; zero; v ] in
  G.add_order g st ~after:fe;
  Alcotest.(check (list int)) "order recorded" [ fe ] (G.order_after g st);
  (* the topological order must put the fetch before the store *)
  let topo = G.topo_order g in
  let pos x = Option.get (Fpfa_util.Listx.index_of (fun y -> y = x) topo) in
  Alcotest.(check bool) "fe before st" true (pos fe < pos st);
  (* removing the fetch drops the order edge *)
  G.remove g fe;
  Alcotest.(check (list int)) "order edge dropped" [] (G.order_after g st)

let test_remove_order () =
  let g = G.create "t" in
  make_region g "r" 4;
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  let one = G.add g (G.Const 1) [] in
  let fe0 = G.add g (G.Fe "r") [ ss; zero ] in
  let fe1 = G.add g (G.Fe "r") [ ss; one ] in
  let v = G.add g (G.Const 7) [] in
  let st = G.add g (G.St "r") [ ss; zero; v ] in
  G.add_order g st ~after:fe0;
  G.add_order g st ~after:fe1;
  Alcotest.(check (list int)) "successors indexed" [ st ]
    (G.order_successors g fe0);
  ignore (G.drain_dirty g);
  let g0 = G.generation g in
  let t0 = G.topo_order g in
  (* removing an absent edge is a no-op: no generation bump, cache valid *)
  G.remove_order g st ~after:v;
  Alcotest.(check int) "absent edge: generation unchanged" g0 (G.generation g);
  Alcotest.(check bool) "absent edge: topo cache kept" true
    (t0 == G.topo_order g);
  (* removing a real edge stamps the cache and the journal like add_order *)
  G.remove_order g st ~after:fe0;
  Alcotest.(check bool) "generation bumped" true (G.generation g > g0);
  Alcotest.(check bool) "topo recomputed" true (not (t0 == G.topo_order g));
  let def, _ = G.drain_dirty g in
  Alcotest.(check bool) "consumer def-dirty" true (List.mem st def);
  Alcotest.(check (list int)) "edge gone" [ fe1 ] (G.order_after g st);
  Alcotest.(check (list int)) "reverse index consistent" []
    (G.order_successors g fe0);
  Alcotest.(check (list int)) "other edge indexed" [ st ]
    (G.order_successors g fe1);
  Alcotest.(check (list string)) "use/def index clean" [] (G.index_errors g);
  G.remove_order g st ~after:fe1;
  Alcotest.(check (list int)) "all edges gone" [] (G.order_after g st);
  Alcotest.(check (list int)) "fe1 successors empty" []
    (G.order_successors g fe1);
  Alcotest.(check (list string)) "index clean after the last edge" []
    (G.index_errors g);
  G.validate g

let test_topo_deterministic_and_cycle () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let a = G.add g (G.Binop Op.Add) [ c1; c2 ] in
  let b = G.add g (G.Binop Op.Mul) [ a; c1 ] in
  Alcotest.(check (list int)) "ascending ties" [ c1; c2; a; b ] (G.topo_order g);
  (* Force a cycle through mutation and expect detection. *)
  G.set_inputs g a [ b; c2 ];
  match G.topo_order g with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "cycle not detected"

let test_validate_token_typing () =
  let g = G.create "t" in
  make_region g "r" 2;
  let ss = G.add g (G.Ss_in "r") [] in
  let zero = G.add g (G.Const 0) [] in
  (* Fe with a value where the token belongs: constructed via set_inputs to
     bypass construction-time discipline. *)
  let fe = G.add g (G.Fe "r") [ ss; zero ] in
  G.set_inputs g fe [ zero; zero ];
  match G.validate g with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "token typing violation accepted"

let test_validate_region_crossing () =
  let g = G.create "t" in
  make_region g "r1" 2;
  make_region g "r2" 2;
  let ss1 = G.add g (G.Ss_in "r1") [] in
  let zero = G.add g (G.Const 0) [] in
  let fe = G.add g (G.Fe "r2") [ G.add g (G.Ss_in "r2") []; zero ] in
  G.set_inputs g fe [ ss1; zero ];
  match G.validate g with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "cross-region token accepted"

let test_validate_undeclared_region () =
  let g = G.create "t" in
  match G.add g (G.Ss_in "ghost") [] with
  | _ -> (
    match G.validate g with
    | exception G.Invalid _ -> ()
    | _ -> Alcotest.fail "undeclared region accepted")

let test_double_ss_in () =
  let g = G.create "t" in
  make_region g "r" 2;
  ignore (G.add g (G.Ss_in "r") []);
  ignore (G.add g (G.Ss_in "r") []);
  match G.validate g with
  | exception G.Invalid _ -> ()
  | _ -> Alcotest.fail "two Ss_in accepted"

let test_copy_independent () =
  let g = G.create "t" in
  let c = G.add g (G.Const 1) [] in
  let g' = G.copy g in
  let c2 = G.add g' (G.Const 2) [] in
  Alcotest.(check int) "copy grew" 2 (G.node_count g');
  Alcotest.(check int) "original unchanged" 1 (G.node_count g);
  ignore c;
  ignore c2

let test_stats_and_depth () =
  let g = Cdfg.Builder.build_program
      Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source
  in
  let s = G.stats g in
  (* the builder forwards the 20 reads of values stored before them *)
  Alcotest.(check int) "fetches" 10 s.G.fetches;
  Alcotest.(check int) "stores" 12 s.G.stores;
  Alcotest.(check int) "multiplies" 5 s.G.multiplies;
  Alcotest.(check bool) "critical path positive" true (s.G.critical_path > 0);
  let depth_of = G.depth g in
  G.iter g (fun n ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "depth monotone" true
            (depth_of p < depth_of n.G.id))
        (G.preds g n.G.id))

let test_use_count () =
  let g = G.create "t" in
  let c = G.add g (G.Const 3) [] in
  let a = G.add g (G.Binop Op.Add) [ c; c ] in
  Alcotest.(check int) "two data uses" 2 (G.use_count g c);
  G.set_output g "out" a;
  Alcotest.(check int) "output counts" 1 (G.use_count g a)

let test_consumers () =
  let g = G.create "t" in
  let c = G.add g (G.Const 3) [] in
  let a = G.add g (G.Binop Op.Add) [ c; c ] in
  let tbl = G.consumers g in
  let uses = List.sort compare (Hashtbl.find tbl c) in
  Alcotest.(check (list (pair int int))) "ports" [ (a, 0); (a, 1) ] uses

(* --- use/def index invariants --------------------------------------- *)

(* From-scratch recomputations of what the incremental index answers. *)
let naive_consumers g id =
  G.fold g ~init:[] ~f:(fun acc n ->
      let hits = ref acc in
      Array.iteri
        (fun port p -> if p = id then hits := (n.G.id, port) :: !hits)
        n.G.inputs;
      !hits)
  |> List.sort compare

let naive_order_successors g id =
  G.fold g ~init:[] ~f:(fun acc n ->
      if List.mem id n.G.order_after then n.G.id :: acc else acc)
  |> List.sort_uniq compare

let naive_use_count g id =
  List.length (naive_consumers g id)
  + List.length (List.filter (fun (_, o) -> o = id) (G.outputs g))

let check_index_against_naive g =
  G.check_index g;
  List.iter
    (fun id ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "consumers_of %d" id)
        (naive_consumers g id) (G.consumers_of g id);
      Alcotest.(check (list int))
        (Printf.sprintf "order_successors %d" id)
        (naive_order_successors g id)
        (G.order_successors g id);
      Alcotest.(check int)
        (Printf.sprintf "use_count %d" id)
        (naive_use_count g id) (G.use_count g id))
    (G.node_ids g)

(* Arbitrary interleavings of every index-maintaining mutation, applied to
   a real generated graph. Edges always point from lower to higher id (the
   generator builds them that way and every mutation below preserves it),
   so the graph stays acyclic throughout. *)
let test_index_random_mutations () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  let g = Fpfa_kernels.Random_graph.generate ~seed:3 ~ops:60 () in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let values_below n =
    List.filter
      (fun id -> id < n && G.produces_value (G.kind g id))
      (G.node_ids g)
  in
  for step = 1 to 300 do
    let ids = G.node_ids g in
    let values = List.filter (fun id -> G.produces_value (G.kind g id)) ids in
    (match Random.State.int rng 5 with
    | 0 ->
      let a = pick values and b = pick values in
      ignore (G.add g (G.Binop Op.Add) [ a; b ])
    | 1 -> (
      (* rewire a binop to producers below it *)
      let binops =
        List.filter
          (fun id -> match G.kind g id with G.Binop _ -> true | _ -> false)
          ids
      in
      match binops with
      | [] -> ()
      | _ -> (
        let n = pick binops in
        match values_below n with
        | [] -> ()
        | lower -> G.set_inputs g n [ pick lower; pick lower ]))
    | 2 -> (
      (* redirect all uses of a node to an earlier value *)
      let old = pick values in
      match values_below old with
      | [] -> ()
      | lower ->
        let by = pick lower in
        G.replace_uses g old ~by)
    | 3 -> (
      (* remove a dead node *)
      match List.filter (fun id -> G.use_count g id = 0) ids with
      | [] -> ()
      | dead -> G.remove g (pick dead))
    | _ ->
      (* add an order edge consistent with the id order *)
      let a = pick ids and b = pick ids in
      if a < b then G.add_order g b ~after:a);
    if step mod 25 = 0 then check_index_against_naive g
  done;
  check_index_against_naive g

(* The journal feeding the worklist engine: a rewrite marks the rewired
   consumers def-dirty and the displaced producer use-dirty, and draining
   empties it. Clearing empties it too, and unmarks the ids it held: the
   additions' marks must not hide the rewrite's. *)
let test_dirty_journal () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let a = G.add g (G.Binop Op.Add) [ c1; c1 ] in
  G.clear_dirty g;
  Alcotest.(check bool) "cleared" true (G.drain_dirty g = ([], []));
  G.replace_uses g c1 ~by:c2;
  let def, use = G.drain_dirty g in
  Alcotest.(check bool) "consumer def-dirty" true (List.mem a def);
  Alcotest.(check bool) "old producer use-dirty" true (List.mem c1 use);
  let def2, use2 = G.drain_dirty g in
  Alcotest.(check bool) "second drain empty" true
    (def2 = [] && use2 = []);
  (* removing a node marks its producers use-dirty so a DCE cascade can
     re-examine them *)
  G.remove g a;
  let _, use3 = G.drain_dirty g in
  Alcotest.(check bool) "removal marks producers use-dirty" true
    (List.mem c2 use3)

let test_topo_cache_generation () =
  let g = G.create "t" in
  let c1 = G.add g (G.Const 1) [] in
  let c2 = G.add g (G.Const 2) [] in
  let a = G.add g (G.Binop Op.Add) [ c1; c2 ] in
  let g0 = G.generation g in
  let t1 = G.topo_order g in
  let t2 = G.topo_order g in
  Alcotest.(check bool) "cache hit returns the same list" true (t1 == t2);
  Alcotest.(check int) "topo_order itself does not mutate" g0 (G.generation g);
  G.set_inputs g a [ c2; c1 ];
  Alcotest.(check bool) "mutation bumps the generation" true
    (G.generation g > g0);
  let t3 = G.topo_order g in
  Alcotest.(check bool) "recomputed after mutation" true (not (t1 == t3));
  Alcotest.(check (list int)) "order still correct" [ c1; c2; a ] t3

let test_copy_index_independent () =
  let g = Fpfa_kernels.Random_graph.generate ~seed:5 ~ops:40 () in
  let g' = G.copy g in
  G.check_index g';
  let v =
    List.find (fun id -> G.produces_value (G.kind g' id)) (G.node_ids g')
  in
  let before = List.length (G.consumers_of g v) in
  ignore (G.add g' (G.Binop Op.Add) [ v; v ]);
  Alcotest.(check int) "copy indexed the new uses" (before + 2)
    (List.length (G.consumers_of g' v));
  Alcotest.(check int) "original index untouched" before
    (List.length (G.consumers_of g v));
  G.check_index g;
  G.check_index g'

let suite =
  [
    Alcotest.test_case "add/access" `Quick test_add_and_access;
    Alcotest.test_case "arity" `Quick test_arity_checked;
    Alcotest.test_case "dangling" `Quick test_dangling_rejected;
    Alcotest.test_case "replace_uses" `Quick test_replace_uses;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "order edges" `Quick test_order_edges;
    Alcotest.test_case "remove_order" `Quick test_remove_order;
    Alcotest.test_case "topo + cycle" `Quick test_topo_deterministic_and_cycle;
    Alcotest.test_case "token typing" `Quick test_validate_token_typing;
    Alcotest.test_case "region crossing" `Quick test_validate_region_crossing;
    Alcotest.test_case "undeclared region" `Quick test_validate_undeclared_region;
    Alcotest.test_case "double ss_in" `Quick test_double_ss_in;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "stats/depth" `Quick test_stats_and_depth;
    Alcotest.test_case "use_count" `Quick test_use_count;
    Alcotest.test_case "consumers" `Quick test_consumers;
    Alcotest.test_case "index vs naive (random mutations)" `Quick
      test_index_random_mutations;
    Alcotest.test_case "dirty journal" `Quick test_dirty_journal;
    Alcotest.test_case "topo cache + generation" `Quick
      test_topo_cache_generation;
    Alcotest.test_case "copy index independence" `Quick
      test_copy_index_independent;
  ]
