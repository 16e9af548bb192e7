module G = Cdfg.Graph

(* Dependencies drawn in Fig. 4: Clu0 collects Clu1, Clu2, Clu6; Clu7
   collects Clu3, Clu4, Clu5; Clu8 reads Clu0; Clu9 reads Clu7; Clu10 joins
   Clu8 and Clu9. *)
let fig4_edges =
  [
    (1, 0); (2, 0); (6, 0);
    (3, 7); (4, 7); (5, 7);
    (0, 8);
    (7, 9);
    (8, 10); (9, 10);
  ]

let fig4_clustering () =
  let g = G.create "fig4" in
  let clusters =
    Array.init 11 (fun cid ->
        (* Each paper cluster becomes a pass-through of a distinct constant
           stored to its own single-cell region — enough structure for the
           scheduler and the allocator. *)
        let region = Printf.sprintf "out%d" cid in
        G.declare_region g region { G.size = Some 1; implicit = false };
        let ss = G.add g (G.Ss_in region) [] in
        let value = G.add g (G.Const (100 + cid)) [] in
        let offset = G.add g (G.Const 0) [] in
        let stn = G.add g (G.St region) [ ss; offset; value ] in
        ignore (G.add g (G.Ss_out region) [ stn ]);
        {
          Mapping.Cluster.cid;
          ops = [];
          root = Some value;
          stores = [ stn ];
          deletes = [];
          cinputs = [ value ];
        })
  in
  let edges =
    List.map
      (fun (src, dst) -> { Mapping.Cluster.src; dst; weight = 1 })
      fig4_edges
  in
  Mapping.Cluster.make g clusters edges

let fig4_before = [ [ 1; 2; 3; 4; 5; 6 ]; [ 0; 7 ]; [ 8; 9 ]; [ 10 ] ]

let fig4_after = [ [ 1; 2; 3; 4; 5 ]; [ 6; 7 ]; [ 0; 9 ]; [ 8 ]; [ 10 ] ]
