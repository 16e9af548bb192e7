module G = Cdfg.Graph

(* Which writers each fetch must stay ordered before, under an address
   oracle. The builder is maximally conservative: [Builder.advance_token]
   orders every new writer (St/Del) of a region after *all* pending
   fetches of the previous token version, even when the addresses can
   never collide. [needed_writers] re-derives, per fetch, the minimal set
   of writers the fetch must precede; the may-alias lint, the
   statespace-order verifier and [Depend] read it.

   The oracle lives on the analysis side (Fpfa_analysis.Addr); this module
   only consumes it, which keeps the library layering acyclic. *)

type relation = Disjoint | Must_alias | May_alias
type oracle = G.id -> G.id -> relation

let writer_of_region region kind =
  match kind with
  | G.St r | G.Del r -> String.equal r region
  | _ -> false

(* Token version -> the writers consuming it (at port 0). The walk below
   visits O(token-chain length) versions per fetch; resolving each step
   through the graph's consumer index costs a fold-and-sort every time,
   which dominates the walk on long store chains. Callers that examine
   many fetches should build this once and pass it in. *)
type writer_index = (G.id, G.id list) Hashtbl.t

let writer_index g : writer_index =
  let tbl = Hashtbl.create 64 in
  G.iter g (fun n ->
      match n.G.kind with
      | (G.St _ | G.Del _) when Array.length n.G.inputs > 0 ->
        let tok = n.G.inputs.(0) in
        let prev =
          match Hashtbl.find_opt tbl tok with Some l -> l | None -> []
        in
        Hashtbl.replace tbl tok (n.G.id :: prev)
      | _ -> ());
  tbl

(* The writers the fetch must stay ordered before: walk the token chain
   downstream from the fetch's own token version; a writer the oracle
   proves disjoint is stepped over (recursing into the version it
   produces), the first possibly-aliasing writer on each branch is
   collected and the walk stops there — later writers are ordered after it
   by the token chain itself. *)
let needed_writers ?index ~oracle g f =
  let region =
    match G.kind g f with
    | G.Fe r -> r
    | _ -> invalid_arg "Disambig.needed_writers: not a fetch"
  in
  let index = match index with Some i -> i | None -> writer_index g in
  let visited = Hashtbl.create 8 in
  let needed = ref [] in
  let rec walk token =
    if not (Hashtbl.mem visited token) then begin
      Hashtbl.add visited token ();
      match Hashtbl.find_opt index token with
      | None -> ()
      | Some writers ->
        List.iter
          (fun c ->
            if writer_of_region region (G.kind g c) then
              match oracle f c with
              | Disjoint -> walk c
              | rel ->
                if not (List.mem_assoc c !needed) then
                  needed := (c, rel) :: !needed)
          writers
    end
  in
  walk (G.node g f).G.inputs.(0);
  !needed
