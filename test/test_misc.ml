(* Coverage for the remaining surfaces: DOT exports, pretty printers, the
   simplifier engine's guards, kernel reference states, encode
   versioning. *)

let contains text needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length text
    && (String.sub text i n = needle || find (i + 1))
  in
  find 0

let test_cdfg_dot () =
  let g =
    Cdfg.Builder.build_program
      Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source
  in
  let text = Cdfg.Dot.to_string g in
  Alcotest.(check bool) "digraph" true (contains text "digraph");
  Alcotest.(check bool) "fetch nodes" true (contains text "FE a");
  Alcotest.(check bool) "store nodes" true (contains text "ST sum");
  Alcotest.(check bool) "statespace endpoints" true (contains text "ss_in");
  (* every node declared exactly once *)
  Cdfg.Graph.iter g (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d present" n.Cdfg.Graph.id)
        true
        (contains text (Printf.sprintf "n%d [" n.Cdfg.Graph.id)))

let test_cluster_dot () =
  let result =
    Fpfa_core.Flow.map_source
      Fpfa_kernels.Kernels.fir_paper.Fpfa_kernels.Kernels.source
  in
  let text = Mapping.Cluster.to_dot result.Fpfa_core.Flow.clustering in
  Alcotest.(check bool) "digraph" true (contains text "digraph");
  Array.iter
    (fun (c : Mapping.Cluster.cluster) ->
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d present" c.Mapping.Cluster.cid)
        true
        (contains text (Printf.sprintf "c%d [" c.Mapping.Cluster.cid)))
    result.Fpfa_core.Flow.clustering.Mapping.Cluster.clusters

let test_pass_checked_catches_breakage () =
  (* a deliberately invariant-breaking rule must be caught by the
     whole-graph verify hook, which blames it *)
  let vandal =
    Transform.Pass.local "vandal" (fun g id ->
        match Cdfg.Graph.kind g id with
        | Cdfg.Graph.Fe _ ->
          (* point a fetch's token at a value node: type violation *)
          let const = Cdfg.Graph.add g (Cdfg.Graph.Const 0) [] in
          Cdfg.Graph.set_inputs g id [ const; Cdfg.Graph.input g id 1 ];
          true
        | _ -> false)
  in
  let g = Cdfg.Builder.build_program "void main() { x = a[0]; }" in
  match
    Transform.Pass.run_worklist
      ~verify:(Fpfa_analysis.Verify.pass_hook ~full:true ())
      [ vandal ] g
  with
  | exception Transform.Pass.Verification_failed { rule = "vandal"; _ } -> ()
  | _ -> Alcotest.fail "checked run let an invalid graph through"

let test_fixpoint_bound () =
  (* a rule that adds a node on every visit never quiesces: the engine
     must stop at its step budget *)
  let restless =
    Transform.Pass.local "restless" (fun g _ ->
        ignore (Cdfg.Graph.add g (Cdfg.Graph.Const 0) []);
        true)
  in
  let g = Cdfg.Builder.build_program "void main() { x = 1; }" in
  match Transform.Pass.run_worklist ~max_steps:50 [ restless ] g with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "non-converging rule set not detected"

let test_kernel_reference_states () =
  (* the corpus's reference states agree with the CDFG evaluator *)
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      let state = Fpfa_kernels.Kernels.reference_state k in
      let g = Cdfg.Builder.build_program k.Fpfa_kernels.Kernels.source in
      let result =
        Cdfg.Eval.run ~memory_init:k.Fpfa_kernels.Kernels.inputs g
      in
      Alcotest.(check bool)
        (k.Fpfa_kernels.Kernels.name ^ " reference agrees")
        true
        (Cdfg.Eval.conforms_to_interp
           ~memory_init:k.Fpfa_kernels.Kernels.inputs state result))
    Fpfa_kernels.Kernels.all

let test_encode_version_rejected () =
  let job =
    (Fpfa_core.Flow.map_source
       Fpfa_kernels.Kernels.dct4.Fpfa_kernels.Kernels.source)
      .Fpfa_core.Flow.job
  in
  let image = Bytes.of_string (Mapping.Encode.to_string job) in
  (* byte 6 is the format version (after the u16-length + 4-byte magic) *)
  Bytes.set image 6 '\xff';
  match Mapping.Encode.of_string (Bytes.to_string image) with
  | exception Mapping.Encode.Corrupt _ -> ()
  | _ -> Alcotest.fail "wrong version accepted"

let test_flow_summary_prints () =
  let result =
    Fpfa_core.Flow.map_source
      Fpfa_kernels.Kernels.dct4.Fpfa_kernels.Kernels.source
  in
  let text = Format.asprintf "%a" Fpfa_core.Flow.pp_summary result in
  Alcotest.(check bool) "mentions clusters" true (contains text "clusters");
  let job_text = Format.asprintf "%a" Mapping.Job.pp result.Fpfa_core.Flow.job in
  Alcotest.(check bool) "job listing has cycles" true (contains text "cycles");
  Alcotest.(check bool) "job listing has regions" true
    (contains job_text "region")

let test_prng_pick_empty () =
  let rng = Fpfa_util.Prng.create 1 in
  match Fpfa_util.Prng.pick rng [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pick on empty list accepted"

let suite =
  [
    Alcotest.test_case "cdfg dot" `Quick test_cdfg_dot;
    Alcotest.test_case "cluster dot" `Quick test_cluster_dot;
    Alcotest.test_case "pass checked" `Quick test_pass_checked_catches_breakage;
    Alcotest.test_case "fixpoint bound" `Quick test_fixpoint_bound;
    Alcotest.test_case "kernel references" `Quick test_kernel_reference_states;
    Alcotest.test_case "encode version" `Quick test_encode_version_rejected;
    Alcotest.test_case "summary prints" `Quick test_flow_summary_prints;
    Alcotest.test_case "prng pick empty" `Quick test_prng_pick_empty;
  ]
