module G = Cdfg.Graph
module Obs = Fpfa_obs.Obs

(* Engine tallies, visible in `fpfa_map ... --stats` (counters are inert
   until Obs.enable). Per-rule firing counters are registered lazily in
   run_worklist under "pass.fire.<rule>". *)
let c_steps = Obs.counter "pass.steps"
let c_rewrites = Obs.counter "pass.rewrites"
let c_enqueues = Obs.counter "pass.enqueues"
let c_peak_eager = Obs.counter "pass.queue.eager.peak"
let c_peak_settled = Obs.counter "pass.queue.settled.peak"
let c_verify_checks = Obs.counter "pass.verify.checks"
let c_verify_failures = Obs.counter "pass.verify.failures"

type verify_hook =
  string -> Cdfg.Graph.t -> Cdfg.Graph.Id_set.t -> unit

exception Verification_failed of { rule : string; error : exn }

let () =
  Printexc.register_printer (function
    | Verification_failed { rule; error } ->
      Some
        (Printf.sprintf "Verification_failed(rule %s): %s" rule
           (Printexc.to_string error))
    | _ -> None)

(* Runs [f rule g touched]; any exception is charged to [rule]. *)
let run_verify f rule g touched =
  Obs.incr c_verify_checks;
  try f rule g touched
  with error ->
    Obs.incr c_verify_failures;
    raise (Verification_failed { rule; error })

type rule = {
  rname : string;
  prepare : Cdfg.Graph.t -> Cdfg.Graph.id -> bool;
  prepare_seeded : (Cdfg.Graph.t -> Cdfg.Graph.id -> bool) option;
  settled : bool;
}

let local rname rewrite =
  { rname; prepare = rewrite; prepare_seeded = None; settled = false }

let settled rname rewrite =
  { rname; prepare = rewrite; prepare_seeded = None; settled = true }

type worklist_report = { steps : int; rewrites : int; peak_queue : int }

(* The ids waiting in one of the engine's queues: a byte per id, grown as
   rules add nodes. *)
type pending = { mutable marks : Bytes.t }

let is_pending p id = id < Bytes.length p.marks && Bytes.get p.marks id <> '\000'

let set_pending p id flag =
  let len = Bytes.length p.marks in
  if id >= len then begin
    let marks = Bytes.make (max (id + 1) (2 * len)) '\000' in
    Bytes.blit p.marks 0 marks 0 len;
    p.marks <- marks
  end;
  Bytes.set p.marks id (if flag then '\001' else '\000')

let run_worklist ?(debug = false) ?max_steps ?seed ?verify rules g =
  Obs.span ~cat:"transform" "worklist"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  (* Forget mutations that predate the run (graph construction, or the
     bit-level rewrites that produced [seed]). *)
  ignore (G.drain_dirty g);
  let eager, deferred = List.partition (fun r -> not r.settled) rules in
  let fire_counter r = Obs.counter ("pass.fire." ^ r.rname) in
  (* A seeded run (the bit-level stage's cleanup) visits only the dirty
     region, so rules that accumulate cross-node state lazily (CSE's
     value-number table) supply a [prepare_seeded] that pre-populates it
     over the whole graph — otherwise a node a bit-level rewrite just
     created could fail to merge with an unvisited old equal. *)
  let prep r =
    match seed with
    | Some _ -> (Option.value r.prepare_seeded ~default:r.prepare) g
    | None -> r.prepare g
  in
  let eager_rw = List.map (fun r -> (r.rname, fire_counter r, prep r)) eager in
  let settled_rw =
    List.map (fun r -> (r.rname, fire_counter r, prep r)) deferred
  in
  let have_settled = settled_rw <> [] in
  (* Two priority tiers. Eager rules (folding, CSE, forwarding, DCE) run
     from the high queue. Settled rules run from the low queue, which is
     popped only when the high queue is empty — i.e. when the eager rules
     have quiesced. At that point DCE is complete (every node that hit
     zero uses was use-dirtied, enqueued and collected), so settled rules
     observe use counts of the live graph only. Rules such as chain
     rebalancing key their chain boundaries on use counts; letting them
     fire on transient counts inflated by not-yet-collected dead trees
     makes them rebuild chains that the next collection invalidates again,
     feeding CSE/DCE fresh dead trees forever. *)
  let pending_hi = { marks = Bytes.make (G.id_bound g) '\000' } in
  let pending_lo = { marks = Bytes.make (G.id_bound g) '\000' } in
  let queue_hi = Queue.create () and queue_lo = Queue.create () in
  let enqueue id =
    if G.mem g id then begin
      if not (is_pending pending_hi id) then begin
        set_pending pending_hi id true;
        Queue.add id queue_hi;
        Obs.incr c_enqueues
      end;
      if have_settled && not (is_pending pending_lo id) then begin
        set_pending pending_lo id true;
        Queue.add id queue_lo;
        Obs.incr c_enqueues
      end
    end
  in
  (* Seed in topological order: producers are simplified before their
     consumers key on them. A caller-supplied seed restricts the initial
     frontier to the dirty region; the journal-driven enqueues below still
     propagate every rewrite's consequences outward from there. *)
  (match seed with
  | None -> List.iter enqueue (G.topo_order g)
  | Some ids ->
    let wanted = List.fold_left (fun s id -> G.Id_set.add id s) G.Id_set.empty ids in
    List.iter
      (fun id -> if G.Id_set.mem id wanted then enqueue id)
      (G.topo_order g));
  let max_steps =
    match max_steps with
    | Some m -> m
    | None -> 100 + ((if have_settled then 200 else 100) * G.node_count g)
  in
  let steps = ref 0 and rewrites = ref 0 and peak = ref 0 in
  while not (Queue.is_empty queue_hi && Queue.is_empty queue_lo) do
    if !steps > max_steps then
      failwith
        (Printf.sprintf
           "worklist engine exceeded %d steps (diverging rewrite rules?)"
           max_steps);
    peak := max !peak (Queue.length queue_hi + Queue.length queue_lo);
    Obs.record_max c_peak_eager (Queue.length queue_hi);
    Obs.record_max c_peak_settled (Queue.length queue_lo);
    let id, rewriters =
      if not (Queue.is_empty queue_hi) then begin
        let id = Queue.pop queue_hi in
        set_pending pending_hi id false;
        (id, eager_rw)
      end
      else begin
        let id = Queue.pop queue_lo in
        set_pending pending_lo id false;
        (id, settled_rw)
      end
    in
    if G.mem g id then begin
      incr steps;
      (* Under [~verify] the journal is drained after every firing so the
         verifier sees exactly the nodes that firing touched; the drained
         sets are accumulated for the enqueue phase below, which therefore
         behaves identically with and without verification. *)
      let def_acc = ref G.Id_set.empty and use_acc = ref G.Id_set.empty in
      let drain_acc () =
        let d, u = G.drain_dirty g in
        def_acc := G.Id_set.union !def_acc d;
        use_acc := G.Id_set.union !use_acc u;
        G.Id_set.union d u
      in
      List.iter
        (fun (rname, fired, rw) ->
          if G.mem g id && rw id then begin
            incr rewrites;
            Obs.incr fired;
            match verify with
            | Some f ->
              let touched = drain_acc () in
              run_verify f rname g touched
            | None -> ()
          end)
        rewriters;
      if debug then G.validate g;
      let def_dirty, use_dirty =
        ignore (drain_acc ());
        (!def_acc, !use_acc)
      in
      (* A changed definition can enable rewrites of the node itself, of
         everything reading it (data or order), and of its direct
         producers (dead-store bypassing examines a store but keys on its
         consumer's offset, so the enabling event lands on the consumer).
         Producers are bounded by arity, so this stays O(degree). A lost
         use can enable use-count-driven rewrites (DCE, dead-store, chain
         rebalancing) of the producer alone — crucially NOT of its
         consumers, or a popular constant would re-enqueue its whole
         fan-out on every removal. *)
      G.Id_set.iter
        (fun d ->
          enqueue d;
          if G.mem g d then begin
            G.iter_consumers g d (fun c _ -> enqueue c);
            List.iter enqueue (G.order_successors g d);
            List.iter enqueue (G.inputs g d)
          end)
        def_dirty;
      G.Id_set.iter enqueue use_dirty
    end
  done;
  Obs.add c_steps !steps;
  Obs.add c_rewrites !rewrites;
  { steps = !steps; rewrites = !rewrites; peak_queue = !peak }
