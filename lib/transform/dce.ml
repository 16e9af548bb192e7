module G = Cdfg.Graph

let is_root g id =
  match G.kind g id with
  | G.Ss_out _ -> true
  | G.Const _ | G.Binop _ | G.Unop _ | G.Mux | G.Ss_in _ | G.Fe _ | G.St _
  | G.Del _ ->
    ignore g;
    false

(* A non-root node with zero uses is removed; the removal marks its
   producers use-dirty, so the engine re-examines them and the sweep
   cascades upwards. Iterated zero-use removal on a DAG deletes exactly the
   nodes a mark-and-sweep would (data-unreachable from [Ss_out] roots and
   named outputs), one O(degree) step at a time. *)
let removable g id = (not (is_root g id)) && G.use_count g id = 0

let rule =
  Pass.local "dce" (fun g id ->
      if removable g id then begin
        G.remove g id;
        true
      end
      else false)
