module G = Cdfg.Graph
module Op = Cdfg.Op

(* Nodes the rule walks: the steps up to a chain root, plus the [2n - 1]
   nodes of each [n]-leaf chain it examines. *)
let c_walked = Fpfa_obs.Obs.counter "reassoc.walked"

let associative = function
  | Op.Add | Op.Mul | Op.Band | Op.Bor | Op.Bxor -> true
  | Op.Sub | Op.Div | Op.Mod | Op.Shl | Op.Shr | Op.Lt | Op.Le | Op.Gt
  | Op.Ge | Op.Eq | Op.Ne | Op.Land | Op.Lor ->
    false

(* Does [id] continue the single-use chain of [op]? Single use counts
   data edges only (named outputs do not make a node a chain boundary:
   its value is unchanged by rebalancing the root above it). *)
let continues g op id ~is_root =
  match G.kind g id with
  | G.Binop op' -> op' = op && (is_root || G.data_use_count g id = 1)
  | _ -> false

(* The number of leaves of the maximal single-use chain of [op] rooted at
   [id]. *)
let rec count_leaves g op id ~is_root =
  if continues g op id ~is_root then
    count_leaves g op (G.input g id 0) ~is_root:false
    + count_leaves g op (G.input g id 1) ~is_root:false
  else 1

(* The same chain's leaves, left to right, consed onto [acc]. *)
let rec chain_leaves g op id ~is_root acc =
  if continues g op id ~is_root then
    chain_leaves g op (G.input g id 0) ~is_root:false
      (chain_leaves g op (G.input g id 1) ~is_root:false acc)
  else id :: acc

let rec build_balanced g op leaves =
  match leaves with
  | [] -> invalid_arg "build_balanced: no leaves"
  | [ leaf ] -> leaf
  | _ ->
    let mid = (List.length leaves + 1) / 2 in
    let left, right = Fpfa_util.Listx.split_at mid leaves in
    let left_id = build_balanced g op left in
    let right_id = build_balanced g op right in
    G.add g (G.Binop op) [ left_id; right_id ]

(* Is the tree rooted at [id] already the shape [build_balanced] produces
   for an [n]-leaf chain, up to commutative operand orientation? Checking
   shape rather than depth makes the rewrite canonicalising: every chain
   has one normal form regardless of the shape it starts from. Depth-only
   firing is history-sensitive — an already-balanced subtree extended by
   one more operand can sit at the same depth a from-scratch rebalance
   would reach with a different shape, so the tree a chain settles into
   would depend on the order in which earlier rewrites happened to build
   it. With the shape guard the fixpoint does not depend on rewrite
   history: every chain minimises to the same tree.

   Orientation must be judged modulo commutativity because that is CSE's
   equivalence: CSE keys commutative binops on the sorted input multiset,
   so a rebuild that only mirrors operands produces nodes CSE merges
   straight back into their older mirror twins — restoring the exact
   pre-rebuild graph and diverging the fixpoint (reassoc fires, CSE
   undoes, forever). A guard at least as coarse as CSE's equivalence
   cannot fire on anything CSE can restore. *)
let rec canonical_shape g op id ~is_root n =
  let chained = continues g op id ~is_root in
  if n = 1 then not chained
  else if not chained then false
  else begin
    let a = G.input g id 0 and b = G.input g id 1 in
    let mid = (n + 1) / 2 in
    (canonical_shape g op a ~is_root:false mid
    && canonical_shape g op b ~is_root:false (n - mid))
    || Op.commutative op
       && canonical_shape g op b ~is_root:false mid
       && canonical_shape g op a ~is_root:false (n - mid)
  end

(* Rebalances the chain rooted at [id] into its canonical balanced shape. *)
let rebalance_root g id =
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
      let c = G.sole_consumer g id in
      c >= 0 && G.mem g c
      && match G.kind g c with G.Binop op' -> op' = op | _ -> false
    in
    if is_chain_interior then false
    else begin
      let n = count_leaves g op id ~is_root:true in
      Fpfa_obs.Obs.add c_walked ((2 * n) - 1);
      if n > 2 && not (canonical_shape g op id ~is_root:true n) then begin
        let root = build_balanced g op (chain_leaves g op id ~is_root:true []) in
        G.replace_uses g id ~by:root;
        true
      end
      else false
    end
  | _ -> false

(* Use counts come from the live index, so re-examining a node after its
   chain changed is O(chain). The rule self-localizes: a dirty node deep
   inside a single-use chain (e.g. one whose second consumer just died,
   fusing two chains) walks up to the chain root, because that is where
   the rebalance fires — the engine's dirty journal only wakes immediate
   neighbours.

   Every node of a chain is visited, so examining the chain at each visit
   would walk it once per member: quadratic in the chain length. The
   rule's answer for a root depends only on the graph, and every mutation
   that can change a chain's shape or its use counts ([add], [set_inputs],
   [replace_uses], [remove], [set_output]) bumps [G.generation]. So each
   run records the generation at which it last examined each root and
   walks a root again only once the graph has changed since.

   The rule is [settled]: chain boundaries are use-count-driven, and use
   counts are only meaningful once DCE has collected every dead tree. If
   rebalancing interleaves with collection at node granularity it keeps
   rebuilding chains whose boundaries were artifacts of dying nodes,
   handing CSE/DCE fresh duplicates forever (observed on fir-16). *)
let rec root_of g id fuel steps =
  let up =
    if fuel <= 0 then -1
    else
      match G.kind g id with
      | G.Binop op when associative op -> (
        let c = G.sole_consumer g id in
        if c >= 0 && G.mem g c then
          match G.kind g c with G.Binop op' when op' = op -> c | _ -> -1
        else -1)
      | _ -> -1
  in
  if up >= 0 then root_of g up (fuel - 1) (steps + 1)
  else begin
    Fpfa_obs.Obs.add c_walked steps;
    id
  end

let rule =
  Pass.settled "reassociate" (fun g ->
      let examined = ref (Array.make (G.id_bound g) (-1)) in
      fun id ->
        let root = root_of g id (G.node_count g) 0 in
        let generation = G.generation g in
        if root >= Array.length !examined then begin
          let grown = Array.make (max (root + 1) (2 * Array.length !examined)) (-1) in
          Array.blit !examined 0 grown 0 (Array.length !examined);
          examined := grown
        end;
        if !examined.(root) = generation then false
        else begin
          !examined.(root) <- generation;
          rebalance_root g root
        end)
