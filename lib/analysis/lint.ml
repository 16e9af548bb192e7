module G = Cdfg.Graph
module D = Fpfa_diag.Diag
module Obs = Fpfa_obs.Obs

(* {2 Liveness (backward, boolean)} *)

let liveness g =
  let output_ids =
    List.fold_left
      (fun s (_, id) -> G.Id_set.add id s)
      G.Id_set.empty (G.outputs g)
  in
  let root (n : G.node) =
    match n.G.kind with
    | G.St _ | G.Del _ | G.Ss_out _ -> true
    | _ -> G.Id_set.mem n.G.id output_ids
  in
  let sol =
    Dataflow.solve g
      (Dataflow.backward ~order_edges:false ~bottom:false ~entry:root
         ~transfer:(fun _ f -> f)
         ~join:( || ) ~equal:Bool.equal ())
  in
  sol.Dataflow.output

(* {2 Reaching stores (forward, per-cell store sets)} *)

(* Fact: (region, offset) -> set of St nodes whose value may still occupy
   that cell. A constant-offset store strongly kills earlier stores to its
   cell; everything else is the identity; paths join by union. *)
module Cell = struct
  type t = string * int

  let compare = compare
end

module Cell_map = Map.Make (Cell)

let const_offset g (n : G.node) =
  let offset_input =
    match (n.G.kind, Array.length n.G.inputs) with
    | (G.Fe _ | G.Del _), 2 | G.St _, 3 -> Some n.G.inputs.(1)
    | _ -> None
  in
  match offset_input with
  | Some off when G.mem g off -> (
    match G.kind g off with G.Const c when c >= 0 -> Some c | _ -> None)
  | Some _ | None -> None

(* How a store addresses its region: one known cell (strong update), a
   bounded band of cells (weak update — the store may write any of them,
   kills nothing), or anywhere (no cell-precise information). *)
type cells = Cell_exact of int | Cell_band of int * int | Cell_unknown

(* Beyond this many cells a "bounded" dynamic offset is treated as
   unknown — the per-cell map would explode for nothing. *)
let max_cell_span = 64

let band_of_interval (itv : Fpfa_util.Interval.t) =
  if
    Fpfa_util.Interval.is_bounded itv
    && itv.Fpfa_util.Interval.hi - itv.Fpfa_util.Interval.lo <= max_cell_span
  then
    (* runtime offsets are non-negative; clamp the static bound *)
    let lo = max 0 itv.Fpfa_util.Interval.lo in
    if lo > itv.Fpfa_util.Interval.hi then Cell_unknown
    else Cell_band (lo, itv.Fpfa_util.Interval.hi)
  else Cell_unknown

let solve_reaching ?store_cells g =
  let store_cells =
    match store_cells with
    | Some f -> f
    | None -> (
      fun n ->
        match const_offset g n with
        | Some k -> Cell_exact k
        | None -> Cell_unknown)
  in
  let union_maps =
    Cell_map.union (fun _ a b -> Some (G.Id_set.union a b))
  in
  Dataflow.solve g
    (Dataflow.forward ~bottom:Cell_map.empty
       ~entry:(fun _ -> Cell_map.empty)
       ~transfer:(fun n fact ->
         match n.G.kind with
         | G.St region -> (
           match store_cells n with
           | Cell_exact k ->
             Cell_map.add (region, k) (G.Id_set.singleton n.G.id) fact
           | Cell_band (lo, hi) ->
             let rec weak k fact =
               if k > hi then fact
               else
                 weak (k + 1)
                   (Cell_map.update (region, k)
                      (function
                        | Some s -> Some (G.Id_set.add n.G.id s)
                        | None -> Some (G.Id_set.singleton n.G.id))
                      fact)
             in
             weak lo fact
           | Cell_unknown -> fact)
         | _ -> fact)
       ~join:union_maps
       ~equal:(Cell_map.equal G.Id_set.equal) ())

let cell_of_fact fact cell =
  match Cell_map.find_opt cell fact with
  | Some s -> s
  | None -> G.Id_set.empty

let reaching_stores g =
  let sol = solve_reaching g in
  fun id ->
    if not (G.mem g id) then G.Id_set.empty
    else
      let n = G.node g id in
      match (n.G.kind, const_offset g n) with
      | G.Fe region, Some k -> cell_of_fact (sol.Dataflow.input id) (region, k)
      | _ -> G.Id_set.empty

(* {2 The lint pass} *)

let run ?(width = 16) ?facts g =
  Obs.span ~cat:"analysis" "lint"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Dead nodes: what DCE would remove. *)
  let live = liveness g in
  G.iter g (fun n ->
      if G.produces_value n.G.kind && not (live n.G.id) then
        add
          (D.warning ~node:n.G.id "lint.dead-node"
             "node %d computes a value no output or store depends on" n.G.id));
  let facts = match facts with Some f -> f | None -> Addr.analyze ~width g in
  let off_cells (n : G.node) =
    match const_offset g n with
    | Some k -> Cell_exact k
    | None -> (
      match Addr.access facts n.G.id with
      | Some a -> band_of_interval a.Addr.offset.Addr.itv
      | None -> Cell_unknown)
  in
  let sol = solve_reaching ~store_cells:off_cells g in
  (* Only an access whose dynamic offset the address analysis cannot
     bound defeats cell-precise reasoning for its whole region: an
     unbounded store may initialise any cell (disables fetch-uninit), an
     unbounded fetch may read any store (disables dead-store). Bounded
     dynamic offsets keep both lints running on their band of cells. Each
     whole-region suppression is announced rather than silent. *)
  let unknown_store = Hashtbl.create 4 and unknown_fetch = Hashtbl.create 4 in
  let tally tbl region id =
    match Hashtbl.find_opt tbl region with
    | Some (node, count) -> Hashtbl.replace tbl region (node, count + 1)
    | None -> Hashtbl.replace tbl region (id, 1)
  in
  G.iter g (fun n ->
      match (n.G.kind, off_cells n) with
      | G.St region, Cell_unknown -> tally unknown_store region n.G.id
      | G.Fe region, Cell_unknown -> tally unknown_fetch region n.G.id
      | _ -> ());
  Hashtbl.iter
    (fun region (node, count) ->
      add
        (D.info ~node "lint.suppressed"
           "fetch-uninit checking suppressed for region %s: %d store(s) at \
            dynamic offsets the address analysis cannot bound (first: node \
            %d)"
           region count node))
    unknown_store;
  Hashtbl.iter
    (fun region (node, count) ->
      add
        (D.info ~node "lint.suppressed"
           "dead-store checking suppressed for region %s: %d fetch(es) at \
            dynamic offsets the address analysis cannot bound (first: node \
            %d)"
           region count node))
    unknown_fetch;
  (* Fetch of never-written cell(s) of a declared local. *)
  let uninit_checkable region =
    (not (Hashtbl.mem unknown_store region))
    && (match G.region_info g region with
       | Some info -> not info.G.implicit
       | None -> false)
  in
  let cell_empty id region k =
    G.Id_set.is_empty (cell_of_fact (sol.Dataflow.input id) (region, k))
  in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe region when uninit_checkable region -> (
        match off_cells n with
        | Cell_exact k ->
          if cell_empty n.G.id region k then
            add
              (D.warning ~node:n.G.id "lint.fetch-uninit"
                 "node %d fetches %s[%d], which no store initialises" n.G.id
                 region k)
        | Cell_band (lo, hi) ->
          let all_empty = ref true in
          for k = lo to hi do
            if not (cell_empty n.G.id region k) then all_empty := false
          done;
          if !all_empty then
            add
              (D.warning ~node:n.G.id "lint.fetch-uninit"
                 "node %d fetches %s[%d..%d], no cell of which any store \
                  initialises"
                 n.G.id region lo hi)
        | Cell_unknown -> ())
      | _ -> ());
  (* Dead stores: never read, and overwritten before the region's final
     contents on every path. [read] is the union of every fetch's reaching
     set (a bounded dynamic fetch reads its whole band); [final] joins the
     out-facts of all token-chain tails (including [Ss_out]), so a store
     surviving to the end of any path counts as observable — memory
     persists. *)
  let read = Hashtbl.create 16 in
  let mark s = G.Id_set.iter (fun id -> Hashtbl.replace read id ()) s in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe region -> (
        match off_cells n with
        | Cell_exact k ->
          mark (cell_of_fact (sol.Dataflow.input n.G.id) (region, k))
        | Cell_band (lo, hi) ->
          for k = lo to hi do
            mark (cell_of_fact (sol.Dataflow.input n.G.id) (region, k))
          done
        | Cell_unknown -> ())
      | _ -> ());
  let final = ref Cell_map.empty in
  let union_maps = Cell_map.union (fun _ a b -> Some (G.Id_set.union a b)) in
  G.iter g (fun n ->
      let is_chain_tail =
        match n.G.kind with
        | G.Ss_in _ | G.St _ | G.Del _ ->
          not
            (List.exists
               (fun (c, _) ->
                 match G.kind g c with
                 | G.St _ | G.Del _ | G.Ss_out _ -> true
                 | _ -> false)
               (G.consumers_of g n.G.id))
        | G.Ss_out _ -> true
        | _ -> false
      in
      if is_chain_tail then
        final := union_maps !final (sol.Dataflow.output n.G.id));
  G.iter g (fun n ->
      match (n.G.kind, const_offset g n) with
      | G.St region, Some k
        when (not (Hashtbl.mem unknown_fetch region))
             && (not (Hashtbl.mem read n.G.id))
             && not (G.Id_set.mem n.G.id (cell_of_fact !final (region, k))) ->
        add
          (D.warning ~node:n.G.id "lint.dead-store"
             "node %d stores to %s[%d] but the value is overwritten before \
              any fetch reads it"
             n.G.id region k)
      | _ -> ());
  (* Accesses whose offset bound escapes the declared region size. Only
     fires when the analysis actually learned something (a finite bound
     strictly narrower than the full datapath range) — an opaque dynamic
     offset is not evidence of an out-of-region access. *)
  let fw = Fpfa_util.Interval.full_width width in
  List.iter
    (fun (a : Addr.access) ->
      match G.region_info g a.Addr.region with
      | Some { G.size = Some size; implicit = false } ->
        let itv = a.Addr.offset.Addr.itv in
        if
          Fpfa_util.Interval.is_bounded itv
          && (itv.Fpfa_util.Interval.lo > fw.Fpfa_util.Interval.lo
             || itv.Fpfa_util.Interval.hi < fw.Fpfa_util.Interval.hi)
          && (itv.Fpfa_util.Interval.lo < 0
             || itv.Fpfa_util.Interval.hi >= size)
        then
          add
            (D.warning ~node:a.Addr.node "addr.out-of-region"
               "node %d may address %s[%d..%d], escaping the region's \
                declared size %d"
               a.Addr.node a.Addr.region itv.Fpfa_util.Interval.lo
               itv.Fpfa_util.Interval.hi size)
      | _ -> ())
    (Addr.accesses facts);
  (* Anti-dependence pairs the address analysis cannot disambiguate: the
     conservative ordering stays, which is correct but serialises the
     schedule — worth knowing when hand-tuning a kernel. *)
  let oracle = Addr.oracle facts in
  let windex = Transform.Disambig.writer_index g in
  let unknown_pairs = Hashtbl.create 4 in
  G.iter g (fun n ->
      match n.G.kind with
      | G.Fe region ->
        List.iter
          (fun ((_ : G.id), rel) ->
            if rel = Transform.Disambig.May_alias then
              Hashtbl.replace unknown_pairs region
                (1
                + match Hashtbl.find_opt unknown_pairs region with
                  | Some c -> c
                  | None -> 0))
          (Transform.Disambig.needed_writers ~index:windex ~oracle g n.G.id)
      | _ -> ());
  Hashtbl.iter
    (fun region count ->
      add
        (D.info "addr.overlap-unknown"
           "region %s: %d fetch/store pair%s the address analysis cannot \
            disambiguate (conservative ordering kept)"
           region count
           (if count = 1 then "" else "s")))
    unknown_pairs;
  List.rev !diags
