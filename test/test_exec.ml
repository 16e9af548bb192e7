(* Tests of Fpfa_exec.Pool — ordering, fast paths, exception semantics,
   pool reuse — and of the parallel determinism contract: a pool-driven
   batch must produce exactly the sequential results (mapped jobs,
   metrics, obs counters, check diagnostics, sweep rows). *)

module Pool = Fpfa_exec.Pool
module Obs = Fpfa_obs.Obs
module Flow = Fpfa_core.Flow
module Sweep = Fpfa_core.Sweep
module Kernels = Fpfa_kernels.Kernels
module Q = QCheck

(* ------------------------------ pool ------------------------------- *)

let test_empty () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check (list int)) "empty batch" [] (Pool.map pool succ [])

let test_single_in_caller () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let self = Domain.self () in
  let ran_in = ref None in
  let r =
    Pool.map pool
      (fun x ->
        ran_in := Some (Domain.self ());
        x + 1)
      [ 41 ]
  in
  Alcotest.(check (list int)) "single result" [ 42 ] r;
  Alcotest.(check bool) "ran in the calling domain" true
    (!ran_in = Some self)

let test_jobs1_no_spawn () =
  let self = Domain.self () in
  let doms = Pool.map_ordered ~jobs:1 (fun _ -> Domain.self ()) [ 1; 2; 3 ] in
  Alcotest.(check bool) "jobs=1 stays in the calling domain" true
    (List.for_all (fun d -> d = self) doms)

let test_fewer_items_than_workers () =
  Pool.with_pool ~jobs:8 @@ fun pool ->
  Alcotest.(check (list int)) "3 items on an 8-wide pool" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "input order" (List.map (fun x -> x * x) xs)
    (Pool.map_ordered ~jobs:4 (fun x -> x * x) xs)

let test_exception_lowest_index () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let f i = if i = 3 || i = 7 then failwith (Printf.sprintf "boom %d" i) else i in
  (match Pool.map pool f (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* two items fail; the re-raised one must be the lowest-index one,
       like a sequential List.map's first failure *)
    Alcotest.(check string) "lowest-index failure" "boom 3" msg);
  (* surviving results were dropped cleanly: the pool serves the next
     batch as if nothing happened *)
  Alcotest.(check (list int)) "pool reusable after a failing batch"
    [ 10; 20; 30 ]
    (Pool.map pool (fun x -> 10 * x) [ 1; 2; 3 ])

let test_many_batches_one_pool () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  for round = 1 to 5 do
    let xs = List.init (10 * round) (fun i -> i + round) in
    Alcotest.(check (list int))
      (Printf.sprintf "batch %d" round)
      (List.map succ xs)
      (Pool.map pool succ xs)
  done

let qcheck_map_ordered =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100 ~name:"map_ordered = List.map"
       (Q.pair (Q.int_range 1 8) (Q.list Q.small_int))
       (fun (jobs, xs) ->
         let f x = (x * 31) + 7 in
         Pool.map_ordered ~jobs f xs = List.map f xs))

(* --------------------- domain-safe observability -------------------- *)

(* Drive obs from several domains at once and from a deterministic
   baseline: commutative counter updates must total exactly, and
   record_max must land on the true maximum, whatever the schedule. *)
let with_quiet_obs f =
  Obs.set_clock (fun () -> 0.0);
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_clock Sys.time)
    f

let test_counter_hammer () =
  with_quiet_obs @@ fun () ->
  let c = Obs.counter "test.exec.hammer" in
  let m = Obs.counter "test.exec.hwm" in
  let xs = List.init 1000 Fun.id in
  ignore
    (Pool.map_ordered ~jobs:4
       (fun i ->
         Obs.incr c;
         Obs.add c 2;
         Obs.record_max m i)
       xs);
  Alcotest.(check int) "adds total exactly" 3000 (Obs.value c);
  Alcotest.(check int) "high-water mark" 999 (Obs.value m)

let test_parallel_spans_all_recorded () =
  with_quiet_obs @@ fun () ->
  ignore
    (Pool.map_ordered ~jobs:4
       (fun i -> Obs.span "item" (fun () -> i))
       (List.init 50 Fun.id));
  let spans = List.filter (fun s -> s.Obs.sname = "item") (Obs.spans ()) in
  Alcotest.(check int) "one span per item" 50 (List.length spans);
  let sids = List.map (fun s -> s.Obs.sid) spans in
  Alcotest.(check int) "span ids unique" 50
    (List.length (List.sort_uniq compare sids))

(* ------------------------- determinism suite ------------------------ *)

(* The contract the CLI's -j flag advertises: identical observable
   output. Run each batch sequentially and on wider pools, from the
   same obs baseline, and require equality of everything a user can
   drain afterwards. *)

let corpus_batch jobs =
  with_quiet_obs @@ fun () ->
  let rows =
    Pool.map_ordered ~jobs
      (fun (k : Kernels.t) ->
        let r = Baseline.map_source Baseline.paper k.Kernels.source in
        (k.Kernels.name, r.Flow.job, r.Flow.metrics))
      Kernels.all
  in
  (rows, Obs.counters ())

let test_corpus_deterministic () =
  let rows1, counters1 = corpus_batch 1 in
  List.iter
    (fun jobs ->
      let rows, counters = corpus_batch jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs and metrics identical at -j %d" jobs)
        true (rows1 = rows);
      Alcotest.(check bool)
        (Printf.sprintf "obs counters identical at -j %d" jobs)
        true (counters1 = counters))
    [ 2; 4; 8 ]

let check_batch jobs =
  let module Diag = Fpfa_diag.Diag in
  Pool.map_ordered ~jobs
    (fun (k : Kernels.t) ->
      let r = Flow.map_source k.Kernels.source in
      ( k.Kernels.name,
        Diag.sort
          (Fpfa_analysis.Verify.structure r.Flow.raw_graph
          @ Fpfa_analysis.Verify.structure r.Flow.graph
          @ Fpfa_analysis.Verify.mappability r.Flow.graph
          @ Fpfa_analysis.Verify.statespace r.Flow.graph
          @ Fpfa_analysis.Lint.run r.Flow.graph) ))
    Kernels.all

let test_check_deterministic () =
  Alcotest.(check bool) "check diagnostics identical" true
    (check_batch 1 = check_batch 4)

let test_sweep_deterministic () =
  let k = Kernels.fir ~taps:16 in
  let points = Sweep.default_points () in
  let run pool =
    Sweep.run ?pool ~verify:true ~memory_init:k.Kernels.inputs
      ~source:k.Kernels.source points
  in
  let seq = run None in
  List.iter
    (fun jobs ->
      let par = Pool.with_pool ~jobs (fun pool -> run (Some pool)) in
      Alcotest.(check bool)
        (Printf.sprintf "sweep rows identical at -j %d" jobs)
        true (seq = par))
    [ 2; 4; 8 ];
  Alcotest.(check bool) "every point verified" true
    (List.for_all (fun r -> r.Sweep.verified = Some true) seq)

let suite =
  [
    Alcotest.test_case "empty batch" `Quick test_empty;
    Alcotest.test_case "single item in caller" `Quick test_single_in_caller;
    Alcotest.test_case "jobs=1 spawns nothing" `Quick test_jobs1_no_spawn;
    Alcotest.test_case "fewer items than workers" `Quick
      test_fewer_items_than_workers;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "lowest-index exception" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "many batches, one pool" `Quick
      test_many_batches_one_pool;
    qcheck_map_ordered;
    Alcotest.test_case "counter hammer" `Quick test_counter_hammer;
    Alcotest.test_case "parallel spans recorded" `Quick
      test_parallel_spans_all_recorded;
    Alcotest.test_case "corpus deterministic" `Quick test_corpus_deterministic;
    Alcotest.test_case "check deterministic" `Quick test_check_deterministic;
    Alcotest.test_case "sweep deterministic" `Quick test_sweep_deterministic;
  ]
