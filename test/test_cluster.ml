(* Unit + property tests for phase 1 (clustering). *)

module G = Cdfg.Graph
module Arch = Fpfa_arch.Arch
module Cluster = Mapping.Cluster

let prepared source =
  let g = Cdfg.Builder.build_program source in
  ignore (Transform.Simplify.minimize g);
  g

let test_fir_clusters () =
  let g = prepared Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source in
  let t = Cluster.run g in
  Cluster.validate t Arch.paper_alu;
  (* 5 multiply(+add) clusters for the taps/tree + the pass-through storing
     the constant 5 into i: 6-8 clusters depending on fusion. *)
  let n = Array.length t.Cluster.clusters in
  Alcotest.(check bool) "cluster count plausible" true (n >= 6 && n <= 9);
  (* every value op is in exactly one cluster *)
  let op_count =
    G.fold g ~init:0 ~f:(fun acc n ->
        match n.G.kind with
        | G.Binop _ | G.Unop _ | G.Mux -> acc + 1
        | _ -> acc)
  in
  let clustered_ops =
    Array.to_list t.Cluster.clusters
    |> List.concat_map (fun c -> c.Cluster.ops)
  in
  Alcotest.(check int) "partition covers all ops" op_count
    (List.length clustered_ops);
  Alcotest.(check int) "no op twice" op_count
    (List.length (Fpfa_util.Listx.uniq compare clustered_ops))

let test_caps_respected () =
  let g = prepared Fpfa_kernels.Kernels.(matmul ~n:3).Fpfa_kernels.Kernels.source in
  let t = Cluster.run g in
  Cluster.validate t Arch.paper_alu;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "at most 3 ops" true (List.length c.Cluster.ops <= 3);
      Alcotest.(check bool) "at most 4 inputs" true
        (List.length c.Cluster.cinputs <= 4);
      let mults =
        List.length
          (List.filter
             (fun op ->
               match G.kind g op with
               | G.Binop b -> Cdfg.Op.is_multiplier_class b
               | _ -> false)
             c.Cluster.ops)
      in
      Alcotest.(check bool) "at most one multiplier" true (mults <= 1))
    t.Cluster.clusters

let test_unit_clusters_are_singletons () =
  let g = prepared Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source in
  let t = Cluster.unit_clusters g in
  Cluster.validate t Arch.unit_alu;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "0 or 1 op" true (List.length c.Cluster.ops <= 1))
    t.Cluster.clusters

let test_pass_through_for_const_store () =
  let g = prepared "void main() { x = 7; }" in
  let t = Cluster.run g in
  Alcotest.(check int) "one pass-through cluster" 1
    (Array.length t.Cluster.clusters);
  let c = t.Cluster.clusters.(0) in
  Alcotest.(check (list int)) "no ops" [] c.Cluster.ops;
  Alcotest.(check int) "one store" 1 (List.length c.Cluster.stores)

let test_one_store_per_cluster () =
  (* two stores of the same fetched value get one pass-through cluster
     each: multi-store clusters could interleave in a token chain and
     deadlock the schedule *)
  let g = prepared "void main() { x = a[0]; y = a[0]; }" in
  let t = Cluster.run g in
  Alcotest.(check int) "two clusters" 2 (Array.length t.Cluster.clusters);
  Array.iter
    (fun c ->
      Alcotest.(check int) "one store each" 1 (List.length c.Cluster.stores))
    t.Cluster.clusters

let test_store_attaches_to_producer () =
  let g = prepared "void main() { x = a[0] * a[1]; }" in
  let t = Cluster.run g in
  Alcotest.(check int) "one cluster" 1 (Array.length t.Cluster.clusters);
  let c = t.Cluster.clusters.(0) in
  Alcotest.(check int) "multiply inside" 1 (List.length c.Cluster.ops);
  Alcotest.(check int) "store attached" 1 (List.length c.Cluster.stores)

let test_edges_respect_dataflow () =
  let g = prepared "void main() { x = a[0] * a[1]; y = x + 1; }" in
  let t = Cluster.run g in
  (* after forwarding x flows straight into the add; there must be an edge
     from the multiply cluster to the add cluster *)
  Alcotest.(check bool) "dependency edge exists" true
    (List.exists (fun e -> e.Cluster.weight = 1) t.Cluster.edges)

let test_anti_dependence_weight_zero () =
  (* y reads a[0] while a[0] is overwritten: consumer cluster -> storer
     cluster with weight 0 *)
  let g = prepared "void main() { y = a[0] + 1; a[0] = z + 2; }" in
  let t = Cluster.run g in
  Alcotest.(check bool) "weight-0 edge present" true
    (List.exists (fun e -> e.Cluster.weight = 0) t.Cluster.edges)

let test_delete_cluster () =
  let f =
    List.hd
      (Cfront.Parser.parse_program "void main() { int t; t = a[0]; b[0] = t; }")
  in
  let g = Cdfg.Builder.build_func ~delete_locals:true f in
  ignore (Transform.Simplify.minimize g);
  let t = Cluster.run g in
  let del_clusters =
    Array.to_list t.Cluster.clusters
    |> List.filter (fun c -> c.Cluster.deletes <> [])
  in
  Alcotest.(check int) "one delete cluster" 1 (List.length del_clusters);
  Alcotest.(check bool) "no ALU used" true
    ((List.hd del_clusters).Cluster.root = None)

let test_sarkar_fuses () =
  let g = prepared Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source in
  let greedy = Cluster.run g in
  let sarkar = Cluster.sarkar g in
  Cluster.validate sarkar Arch.paper_alu;
  (* both must cover the same ops *)
  let ops t =
    Array.to_list t.Cluster.clusters
    |> List.concat_map (fun c -> c.Cluster.ops)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "same op partition domain" (ops greedy) (ops sarkar)

let test_legalize_rejects_dynamic_offsets () =
  let g = Cdfg.Builder.build_program "void main() { x = a[u]; }" in
  match Cluster.run g with
  | exception Mapping.Legalize.Unmappable _ -> ()
  | _ -> Alcotest.fail "dynamic offset accepted"

let test_legalize_requires_stored_outputs () =
  (* a named output that is never stored is rejected *)
  let g = G.create "t" in
  let c = G.add g (G.Const 1) [] in
  G.set_output g "return" c;
  match Mapping.Legalize.check g with
  | exception Mapping.Legalize.Unmappable _ -> ()
  | _ -> Alcotest.fail "unstored output accepted"

(* Property: on random graphs, clustering is a legal partition and the
   cluster DAG is acyclic for both algorithms. *)
let clustering_is_legal =
  QCheck.Test.make ~name:"clustering legal on random graphs" ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let g = Fpfa_kernels.Random_graph.generate ~seed ~ops:60 () in
      let check t =
        Cluster.validate t Arch.paper_alu;
        true
      in
      check (Cluster.run g)
      && check (Cluster.sarkar g)
      &&
      (Cluster.validate (Cluster.unit_clusters g) Arch.unit_alu;
       true))

(* The statespace-version index against the token-chain walks it
   replaces, on random chains of fetches, stores and deletes over four
   cells. Tokens branch: a token may feed several mutators, and the
   downward walk then follows the one with the largest id. *)
let test_version_index_matches_walks () =
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed |] in
    let g = G.create "chain" in
    G.declare_region g "r" { G.size = Some 4; implicit = false };
    let tokens = ref [ G.add g (G.Ss_in "r") [] ] in
    let accesses = ref [] in
    for _ = 1 to 2 + Random.State.int rng 30 do
      let token = List.nth !tokens (Random.State.int rng (List.length !tokens)) in
      let offset = G.add g (G.Const (Random.State.int rng 4)) [] in
      let id =
        match Random.State.int rng 3 with
        | 0 -> G.add g (G.Fe "r") [ token; offset ]
        | 1 ->
          let value = G.add g (G.Const (Random.State.int rng 9)) [] in
          G.add g (G.St "r") [ token; offset; value ]
        | _ -> G.add g (G.Del "r") [ token; offset ]
      in
      (match G.kind g id with G.Fe _ -> () | _ -> tokens := id :: !tokens);
      accesses := id :: !accesses
    done;
    G.validate g;
    let v = Mapping.Legalize.versions g in
    let offset = Mapping.Legalize.const_offset g in
    let rec up token cell =
      match G.kind g token with
      | (G.St _ | G.Del _) when offset token = cell -> Some token
      | G.St _ | G.Del _ -> up (G.input g token 0) cell
      | _ -> None
    in
    let next = Hashtbl.create 16 in
    G.iter g (fun n ->
        match n.G.kind with
        | G.St _ | G.Del _ -> Hashtbl.replace next n.G.inputs.(0) n.G.id
        | _ -> ());
    let rec down token cell =
      match Hashtbl.find_opt next token with
      | Some m when offset m = cell -> Some m
      | Some m -> down m cell
      | None -> None
    in
    List.iter
      (fun id ->
        let cell = offset id in
        let label what = Printf.sprintf "seed %d node %d %s" seed id what in
        Alcotest.(check int) (label "offset") cell (Mapping.Legalize.offset v id);
        Alcotest.(check (option int)) (label "latest version")
          (up (G.input g id 0) cell)
          (Mapping.Legalize.latest_version v id);
        match G.kind g id with
        | G.Fe _ ->
          Alcotest.(check (option int)) (label "overwriter")
            (down (G.input g id 0) cell)
            (Mapping.Legalize.overwriter v id)
        | _ -> ())
      !accesses
  done

let suite =
  [
    Alcotest.test_case "version index" `Quick test_version_index_matches_walks;
    Alcotest.test_case "fir clusters" `Quick test_fir_clusters;
    Alcotest.test_case "caps respected" `Quick test_caps_respected;
    Alcotest.test_case "unit clusters" `Quick test_unit_clusters_are_singletons;
    Alcotest.test_case "const pass-through" `Quick test_pass_through_for_const_store;
    Alcotest.test_case "one store per cluster" `Quick test_one_store_per_cluster;
    Alcotest.test_case "store attaches" `Quick test_store_attaches_to_producer;
    Alcotest.test_case "dataflow edges" `Quick test_edges_respect_dataflow;
    Alcotest.test_case "anti-dep weight 0" `Quick test_anti_dependence_weight_zero;
    Alcotest.test_case "delete cluster" `Quick test_delete_cluster;
    Alcotest.test_case "sarkar" `Quick test_sarkar_fuses;
    Alcotest.test_case "dynamic offsets" `Quick test_legalize_rejects_dynamic_offsets;
    Alcotest.test_case "stored outputs" `Quick test_legalize_requires_stored_outputs;
    QCheck_alcotest.to_alcotest clustering_is_legal;
  ]
