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

(* One of the engine's two queues: a FIFO of ids in a ring buffer (a
   power-of-two int array, doubled when full) and a byte per id marking
   the ids waiting in it, grown as rules add nodes. A push stores one int
   and a byte. *)
type queue = {
  mutable ring : int array;
  mutable head : int;
  mutable length : int;
  mutable marks : Bytes.t;
}

let queue_create id_bound =
  { ring = Array.make 64 0; head = 0; length = 0; marks = Bytes.make id_bound '\000' }

let is_pending q id = id < Bytes.length q.marks && Bytes.get q.marks id <> '\000'

let set_pending q id flag =
  let len = Bytes.length q.marks in
  if id >= len then begin
    let marks = Bytes.make (max (id + 1) (2 * len)) '\000' in
    Bytes.blit q.marks 0 marks 0 len;
    q.marks <- marks
  end;
  Bytes.set q.marks id (if flag then '\001' else '\000')

let push q (id : int) =
  set_pending q id true;
  let cap = Array.length q.ring in
  if q.length = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      ring.(i) <- q.ring.((q.head + i) land (cap - 1))
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  q.ring.((q.head + q.length) land (Array.length q.ring - 1)) <- id;
  q.length <- q.length + 1

let pop q =
  let id = q.ring.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.length <- q.length - 1;
  set_pending q id false;
  id

(* Union of two ascending id lists. *)
let union a b = List.sort_uniq Int.compare (List.rev_append a b)

let run_worklist ?max_steps ?seed ?verify rules g =
  Obs.span ~cat:"transform" "worklist"
    ~args:[ ("nodes", Obs.Int (G.node_count g)) ]
  @@ fun () ->
  (* Forget mutations that predate the run (graph construction, or the
     bit-level rewrites that produced [seed]). *)
  G.clear_dirty g;
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
  let arm rules =
    Array.of_list (List.map (fun r -> (r.rname, fire_counter r, prep r)) rules)
  in
  let eager_rw = arm eager in
  let settled_rw = arm deferred in
  let have_settled = Array.length settled_rw > 0 in
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
  let hi = queue_create (G.id_bound g) and lo = queue_create (G.id_bound g) in
  let enqueue id =
    if G.mem g id then begin
      if not (is_pending hi id) then begin
        push hi id;
        Obs.incr c_enqueues
      end;
      if have_settled && not (is_pending lo id) then begin
        push lo id;
        Obs.incr c_enqueues
      end
    end
  in
  (* A changed definition can enable rewrites of the node itself, of
     everything reading it (data or order), and of its direct producers
     (dead-store bypassing examines a store but keys on its consumer's
     offset, so the enabling event lands on the consumer). Producers are
     bounded by arity, so this stays O(degree). A lost use can enable
     use-count-driven rewrites (DCE, dead-store, chain rebalancing) of the
     producer alone — crucially NOT of its consumers, or a popular
     constant would re-enqueue its whole fan-out on every removal. *)
  let enqueue_consumer c _ = enqueue c in
  let wake_def d =
    enqueue d;
    if G.mem g d then begin
      G.iter_consumers g d enqueue_consumer;
      G.iter_order_successors g d enqueue;
      for port = 0 to G.arity_of g d - 1 do
        enqueue (G.input g d port)
      done
    end
  in
  (* Seed in topological order: producers are simplified before their
     consumers key on them. A caller-supplied seed restricts the initial
     frontier to the dirty region; the journal-driven enqueues below still
     propagate every rewrite's consequences outward from there. *)
  (match seed with
  | None -> List.iter enqueue (G.topo_order g)
  | Some ids ->
    let wanted = Bytes.make (G.id_bound g) '\000' in
    List.iter
      (fun id -> if id >= 0 && id < G.id_bound g then Bytes.set wanted id '\001')
      ids;
    List.iter
      (fun id -> if Bytes.get wanted id <> '\000' then enqueue id)
      (G.topo_order g));
  let max_steps =
    match max_steps with
    | Some m -> m
    | None -> 100 + ((if have_settled then 200 else 100) * G.node_count g)
  in
  let steps = ref 0 and rewrites = ref 0 and peak = ref 0 in
  let peak_hi = ref 0 and peak_lo = ref 0 in
  (* Under [~verify] the journal is drained after every firing so the
     verifier sees exactly the nodes that firing touched; the drained ids
     are accumulated for the enqueue phase, which therefore behaves
     identically with and without verification. *)
  let verified_defs = ref [] and verified_uses = ref [] in
  let visit rewriters id =
    for i = 0 to Array.length rewriters - 1 do
      let rname, fired, rw = rewriters.(i) in
      if G.mem g id && rw id then begin
        incr rewrites;
        Obs.incr fired;
        match verify with
        | Some f ->
          let defs, uses = G.drain_dirty g in
          verified_defs := union !verified_defs defs;
          verified_uses := union !verified_uses uses;
          let touched =
            List.fold_left
              (fun s id -> G.Id_set.add id s)
              G.Id_set.empty (List.rev_append defs uses)
          in
          run_verify f rname g touched
        | None -> ()
      end
    done
  in
  while hi.length > 0 || lo.length > 0 do
    if !steps > max_steps then
      failwith
        (Printf.sprintf
           "worklist engine exceeded %d steps (diverging rewrite rules?)"
           max_steps);
    peak := max !peak (hi.length + lo.length);
    peak_hi := max !peak_hi hi.length;
    peak_lo := max !peak_lo lo.length;
    let from_hi = hi.length > 0 in
    let id = pop (if from_hi then hi else lo) in
    if G.mem g id then begin
      incr steps;
      visit (if from_hi then eager_rw else settled_rw) id;
      let defs, uses = G.drain_dirty g in
      (match verify with
      | Some _ ->
        List.iter wake_def (union !verified_defs defs);
        List.iter enqueue (union !verified_uses uses);
        verified_defs := [];
        verified_uses := []
      | None ->
        List.iter wake_def defs;
        List.iter enqueue uses)
    end
  done;
  Obs.record_max c_peak_eager !peak_hi;
  Obs.record_max c_peak_settled !peak_lo;
  Obs.add c_steps !steps;
  Obs.add c_rewrites !rewrites;
  { steps = !steps; rewrites = !rewrites; peak_queue = !peak }
