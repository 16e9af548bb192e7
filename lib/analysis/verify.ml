module G = Cdfg.Graph
module D = Fpfa_diag.Diag
module Obs = Fpfa_obs.Obs

let c_diags = Obs.counter "analysis.verify.diags"

let record diags =
  Obs.add c_diags (List.length diags);
  diags

(* The graph's rules plus the use/def index against a recomputation,
   which [Graph.validate] leaves out as [Graph]'s own bookkeeping. Index
   findings go ahead of a cycle finding, which [check_diags] lists last:
   its acyclicity walk follows the index, so a divergent index can be
   what made the graph look cyclic. *)
let structure g =
  Obs.span ~cat:"analysis" "verify-structure" @@ fun () ->
  let index =
    List.map (D.error "cdfg.index-divergence" "%s") (G.index_errors g)
  in
  let cycle, rest =
    List.partition
      (fun d -> String.equal d.D.rule "cdfg.cycle")
      (G.check_diags g)
  in
  record (rest @ index @ cycle)

let mappability g =
  Obs.span ~cat:"analysis" "verify-mappability" @@ fun () ->
  record (Mapping.Legalize.check_diags g)

(* {2 Statespace order legality} *)

let statespace ?facts g =
  Obs.span ~cat:"analysis" "verify-statespace" @@ fun () ->
  let facts = match facts with Some f -> f | None -> Addr.analyze g in
  let oracle = Addr.oracle facts in
  let index = Transform.Disambig.writer_index g in
  (* Memoized ancestor sets over data + order edges: the fetch must reach
     the writer through *some* path for the anti-dependence to hold. *)
  let cache : (G.id, G.Id_set.t) Hashtbl.t = Hashtbl.create 32 in
  let rec ancestors id =
    match Hashtbl.find_opt cache id with
    | Some s -> s
    | None ->
      let n = G.node g id in
      let preds = Array.to_list n.G.inputs @ n.G.order_after in
      let s =
        List.fold_left
          (fun acc p -> G.Id_set.union (G.Id_set.add p (ancestors p)) acc)
          G.Id_set.empty preds
      in
      Hashtbl.replace cache id s;
      s
  in
  let diags = ref [] in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe region ->
        List.iter
          (fun (w, _) ->
            if not (G.Id_set.mem n.G.id (ancestors w)) then
              diags :=
                D.error ~node:n.G.id "cdfg.statespace-order"
                  "fetch node %d of region %s may read a cell also written \
                   by node %d, but no data or order path keeps the fetch \
                   before the writer"
                  n.G.id region w
                :: !diags)
          (Transform.Disambig.needed_writers ~index ~oracle g n.G.id)
      | _ -> ());
  record (List.rev !diags)

(* {2 Incremental checks for the pass-engine hook} *)

let local g touched = record (G.check_local_diags g touched)

let pass_hook ?(full = false) () : Transform.Pass.verify_hook =
 fun _rule g touched ->
  let diags = if full then structure g else local g touched in
  match D.errors diags with [] -> () | errs -> raise (D.Failed errs)

(* {2 Bit-level rewrite replay} *)

let bits ?width ?input_ranges g claims =
  let facts = Transform.Absdom.analyze ?width ?input_ranges g in
  let lookup = Transform.Absdom.value facts in
  List.iter
    (fun claim ->
      match Transform.Bitopt.check_claim lookup g claim with
      | Ok () -> ()
      | Error msg ->
        raise
          (Transform.Pass.Verification_failed
             {
               rule = "bitopt";
               error =
                 D.Failed
                   [
                     D.error
                       ~node:(Transform.Bitopt.claim_node claim)
                       "bits.unproven-rewrite" "%s" msg;
                   ];
             }))
    claims
