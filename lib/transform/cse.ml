module G = Cdfg.Graph
module Op = Cdfg.Op

type key = G.kind * int list

let key_of g (n : G.node) : key option =
  let inputs = Array.to_list n.G.inputs in
  match n.G.kind with
  | G.Const _ -> Some (n.G.kind, [])
  | G.Unop _ | G.Mux | G.Fe _ -> Some (n.G.kind, inputs)
  | G.Binop op ->
    let inputs = if Op.commutative op then List.sort compare inputs else inputs in
    Some (n.G.kind, inputs)
  | G.Ss_in _ | G.Ss_out _ | G.St _ | G.Del _ -> ignore g; None

(* The value-number table lives for the whole engine run. Entries go
   stale when a representative is removed or its inputs change; staleness
   is detected lazily at lookup time (the representative must still exist
   and still hash to the key) and the entry is then usurped by the node in
   hand.

   In a full run the table fills in as the topological seed visits every
   node. A seeded run (the cleanup after each batch of certified
   bit-level rewrites, [Flow.bitopt_stage]) visits only the dirty region,
   so [~prime] instead pre-populates the table with every live node
   (earliest in topological order wins, matching the representative a
   full run would elect) — without it, a node a bit-level rewrite just
   created could never merge with an unvisited old equal, and the
   cleanup would leave duplicates a full run merges. *)
let prepare ~prime g =
  let seen : (key, int) Hashtbl.t = Hashtbl.create 64 in
  if prime then
    List.iter
      (fun id ->
        if G.mem g id then
          match key_of g (G.node g id) with
          | None -> ()
          | Some key ->
            if not (Hashtbl.mem seen key) then Hashtbl.replace seen key id)
      (G.topo_order g);
  fun id ->
    let n = G.node g id in
    match key_of g n with
    | None -> false
    | Some key -> (
      match Hashtbl.find_opt seen key with
      | Some rep when rep = id -> false
      | Some rep
        when G.mem g rep
             && (match key_of g (G.node g rep) with
                | Some k -> k = key
                | None -> false) ->
        (* [rep] and [id] have identical kind and inputs, so neither
           can be a descendant of the other: the merge is acyclic. *)
        G.replace_uses g id ~by:rep;
        true
      | Some _ | None ->
        Hashtbl.replace seen key id;
        false)

let rule =
  {
    Pass.rname = "cse";
    settled = false;
    prepare = prepare ~prime:false;
    prepare_seeded = Some (prepare ~prime:true);
  }
