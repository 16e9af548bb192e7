module G = Cdfg.Graph
module Op = Cdfg.Op

let associative = function
  | Op.Add | Op.Mul | Op.Band | Op.Bor | Op.Bxor -> true
  | Op.Sub | Op.Div | Op.Mod | Op.Shl | Op.Shr | Op.Lt | Op.Le | Op.Gt
  | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor ->
    false

(* Collects the leaves of the maximal single-use chain of [op] rooted at
   [id], left to right, together with the chain's depth. [data_uses]
   counts data edges only (named outputs do not make a node a chain
   boundary: its value is unchanged by rebalancing the root above it). *)
let rec chain_leaves g op ~data_uses id ~is_root =
  let single_use = data_uses id = 1 in
  match G.kind g id with
  | G.Binop op' when op' = op && (is_root || single_use) ->
    let inputs = G.inputs g id in
    let a = List.nth inputs 0 and b = List.nth inputs 1 in
    let leaves_a, depth_a = chain_leaves g op ~data_uses a ~is_root:false in
    let leaves_b, depth_b = chain_leaves g op ~data_uses b ~is_root:false in
    (leaves_a @ leaves_b, 1 + max depth_a depth_b)
  | _ -> ([ id ], 0)

let rec build_balanced g op leaves =
  match leaves with
  | [] -> invalid_arg "build_balanced: no leaves"
  | [ leaf ] -> (leaf, 0)
  | _ ->
    let mid = (List.length leaves + 1) / 2 in
    let left, right = Fpfa_util.Listx.split_at mid leaves in
    let left_id, dl = build_balanced g op left in
    let right_id, dr = build_balanced g op right in
    (G.add g (G.Binop op) [ left_id; right_id ], 1 + max dl dr)

(* Is the tree rooted at [id] already the shape [build_balanced] produces
   for an [n]-leaf chain, up to commutative operand orientation? Checking
   shape rather than depth makes the rewrite canonicalising: every chain
   has one normal form regardless of the shape it starts from. Depth-only
   firing is history-sensitive — an already-balanced subtree extended by
   one more operand can sit at the same depth a from-scratch rebalance
   would reach with a different shape, which would let an incrementally
   patched graph settle into a different (equally shallow) tree than the
   cold compile.

   Orientation must be judged modulo commutativity because that is CSE's
   equivalence: CSE keys commutative binops on the sorted input multiset,
   so a rebuild that only mirrors operands produces nodes CSE merges
   straight back into their older mirror twins — restoring the exact
   pre-rebuild graph and diverging the fixpoint (reassoc fires, CSE
   undoes, forever). A guard at least as coarse as CSE's equivalence
   cannot fire on anything CSE can restore. *)
let rec canonical_shape g op ~data_uses id ~is_root n =
  let continues =
    match G.kind g id with
    | G.Binop op' -> op' = op && (is_root || data_uses id = 1)
    | _ -> false
  in
  if n = 1 then not continues
  else if not continues then false
  else begin
    let inputs = G.inputs g id in
    let a = List.nth inputs 0 and b = List.nth inputs 1 in
    let mid = (n + 1) / 2 in
    let split x y =
      canonical_shape g op ~data_uses x ~is_root:false mid
      && canonical_shape g op ~data_uses y ~is_root:false (n - mid)
    in
    split a b || (Op.commutative op && split b a)
  end

(* Rebalances the chain rooted at [id] into its canonical balanced shape.
   [data_uses id] must count data consumers; [consumer_of id] must
   return the single data consumer when there is exactly one, and -1
   otherwise. *)
let rebalance_root g ~data_uses ~consumer_of id =
  match G.kind g id with
  (* Dead roots (no data uses, no named output) are DCE-bound: rebuilding
     them only manufactures fresh dead trees for the next collection. The
     depth-strict guard used to bound that churn implicitly; the
     canonical-shape guard below does not, so exclude them outright. *)
  | G.Binop _ when G.use_count g id = 0 -> false
  | G.Binop op when associative op ->
    (* Only rebalance chain roots: nodes whose consumer is not the same
       single-use chain. *)
    let is_chain_interior =
      let c = consumer_of id in
      c >= 0 && G.mem g c
      && match G.kind g c with G.Binop op' -> op' = op | _ -> false
    in
    if is_chain_interior then false
    else begin
      let leaves, _depth = chain_leaves g op ~data_uses id ~is_root:true in
      let n = List.length leaves in
      if n > 2 && not (canonical_shape g op ~data_uses id ~is_root:true n)
      then begin
        let root, _ = build_balanced g op leaves in
        G.replace_uses g id ~by:root;
        true
      end
      else false
    end
  | _ -> false

let run g =
  let changed = ref false in
  let use_counts = Hashtbl.create 64 in
  let consumers = G.consumers g in
  Hashtbl.iter
    (fun producer uses -> Hashtbl.replace use_counts producer (List.length uses))
    consumers;
  let data_uses id =
    match Hashtbl.find_opt use_counts id with Some c -> c | None -> 0
  in
  let consumer_of id =
    match Hashtbl.find_opt consumers id with
    | Some [ (c, _) ] -> c
    | Some _ | None -> -1
  in
  List.iter
    (fun id ->
      if G.mem g id && rebalance_root g ~data_uses ~consumer_of id then
        changed := true)
    (G.node_ids g);
  !changed

let pass = { Pass.name = "reassociate"; run }

(* Worklist variant: use counts come from the live index instead of a
   snapshot, so re-examining a node after its chain changed is O(chain).
   The rule self-localizes: a dirty node deep inside a single-use chain
   (e.g. one whose second consumer just died, fusing two chains) walks up
   to the chain root, because that is where the rebalance fires — the
   engine's dirty journal only wakes immediate neighbours.

   The rule is [settled]: chain boundaries are use-count-driven, and use
   counts are only meaningful once DCE has collected every dead tree. If
   rebalancing interleaves with collection at node granularity it keeps
   rebuilding chains whose boundaries were artifacts of dying nodes,
   handing CSE/DCE fresh duplicates forever (observed on fir-16). *)
let rule =
  Pass.settled "reassociate" (fun g id ->
      let data_uses = G.data_use_count g in
      let consumer_of = G.sole_consumer g in
      let rec root_of id fuel =
        if fuel <= 0 then id
        else
          match G.kind g id with
          | G.Binop op when associative op -> (
            let c = consumer_of id in
            if c >= 0 && G.mem g c then
              match G.kind g c with
              | G.Binop op' when op' = op -> root_of c (fuel - 1)
              | _ -> id
            else id)
          | _ -> id
      in
      rebalance_root g ~data_uses ~consumer_of (root_of id (G.node_count g)))
