(* Tests of the lib/obs observability subsystem: disabled-mode
   transparency, span nesting (including a qcheck property over random
   span trees), Chrome-trace JSON export on a real kernel, and
   consistency of the counters reported by the allocator/simulator
   against Mapping.Metrics. *)

module Obs = Fpfa_obs.Obs
module Q = QCheck

(* Every test runs against a deterministic ticking clock and restores
   the global obs state afterwards — the whole suite shares one binary. *)
let with_obs f =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      t := !t +. 0.001;
      !t);
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_clock Sys.time)
    f

(* ----------------------- minimal JSON validator ---------------------- *)

(* Recursive-descent check that a string is one well-formed JSON value.
   No external dependency is available, and the exporter hand-writes its
   output, so parse the grammar for real instead of spot-checking. *)
let json_is_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let exception Bad in
  let expect c =
    match peek () with Some d when d = c -> advance () | _ -> raise Bad
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let pstring () =
    expect '"';
    let rec chars () =
      match peek () with
      | None -> raise Bad
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          chars ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> raise Bad
          done;
          chars ()
        | _ -> raise Bad)
      | Some c when Char.code c < 0x20 -> raise Bad
      | Some _ ->
        advance ();
        chars ()
    in
    chars ()
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if !pos = start then raise Bad
  in
  let pnumber () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let rec pvalue () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          pstring ();
          skip_ws ();
          expect ':';
          pvalue ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise Bad
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          pvalue ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> raise Bad
        in
        elements ()
      end
    | Some '"' -> pstring ()
    | Some ('-' | '0' .. '9') -> pnumber ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> raise Bad);
    skip_ws ()
  in
  match
    pvalue ();
    !pos = n
  with
  | reached_end -> reached_end
  | exception Bad -> false

let contains haystack needle =
  let h = String.length haystack and m = String.length needle in
  let rec go i = i + m <= h && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* ------------------------------ basics ------------------------------ *)

let test_disabled_is_transparent () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.disabled" in
  Obs.incr c;
  Obs.add c 41;
  Obs.set c 7;
  Obs.record_max c 9;
  let v = Obs.span "nothing" (fun () -> 42) in
  Alcotest.(check int) "span is identity" 42 v;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.spans ()))

let test_span_nesting () =
  with_obs @@ fun () ->
  let x =
    Obs.span ~cat:"t" "outer" (fun () ->
        let a = Obs.span ~cat:"t" "inner-1" (fun () -> 1) in
        let b = Obs.span ~cat:"t" "inner-2" (fun () -> 2) in
        a + b)
  in
  Alcotest.(check int) "value" 3 x;
  let spans = Obs.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name =
    List.find (fun s -> String.equal s.Obs.sname name) spans
  in
  let outer = find "outer" and i1 = find "inner-1" and i2 = find "inner-2" in
  Alcotest.(check (option int)) "outer is a root" None outer.Obs.sparent;
  Alcotest.(check (option int))
    "inner-1 inside outer" (Some outer.Obs.sid) i1.Obs.sparent;
  Alcotest.(check (option int))
    "inner-2 inside outer" (Some outer.Obs.sid) i2.Obs.sparent;
  Alcotest.(check bool) "children complete first" true
    (match List.map (fun s -> s.Obs.sname) spans with
    | [ "inner-1"; "inner-2"; "outer" ] -> true
    | _ -> false)

let test_span_closes_on_raise () =
  with_obs @@ fun () ->
  (try
     Obs.span "boom" (fun () -> failwith "expected") |> ignore;
     Alcotest.fail "exception swallowed"
   with Failure msg -> Alcotest.(check string) "re-raised" "expected" msg);
  match Obs.spans () with
  | [ s ] ->
    Alcotest.(check string) "span recorded despite raise" "boom" s.Obs.sname;
    Alcotest.(check bool) "duration non-negative" true (s.Obs.sdur >= 0.0)
  | spans ->
    Alcotest.failf "expected exactly one span, got %d" (List.length spans)

let test_counter_registry () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.registry" in
  Alcotest.(check bool) "handles are idempotent" true
    (Obs.counter "test.registry" == c);
  Obs.incr c;
  Obs.add c 9;
  Alcotest.(check int) "incr/add" 10 (Obs.value c);
  Obs.record_max c 5;
  Alcotest.(check int) "record_max keeps high-water mark" 10 (Obs.value c);
  Obs.record_max c 25;
  Alcotest.(check int) "record_max raises it" 25 (Obs.value c);
  Obs.set c 3;
  Alcotest.(check int) "set overwrites" 3 (Obs.value c);
  Alcotest.(check (option int))
    "find_counter" (Some 3)
    (Obs.find_counter "test.registry");
  Alcotest.(check (option int))
    "find_counter misses unknown names" None
    (Obs.find_counter "test.no-such-counter")

(* --------------------- qcheck: spans well-nested --------------------- *)

type tree = Node of int * tree list

let tree_gen : tree Q.Gen.t =
  Q.Gen.(
    sized
    @@ fix (fun self size ->
           map2
             (fun tag kids -> Node (tag, kids))
             (int_range 0 9)
             (if size = 0 then return []
              else list_size (int_range 0 3) (self (size / 4)))))

let rec tree_print (Node (tag, kids)) =
  Printf.sprintf "Node(%d,[%s])" tag
    (String.concat ";" (List.map tree_print kids))

let tree_arb = Q.make ~print:tree_print tree_gen

let rec tree_size (Node (_, kids)) =
  1 + Fpfa_util.Listx.sum (List.map tree_size kids)

let spans_well_nested =
  Q.Test.make ~name:"spans are well-nested with non-negative durations"
    ~count:100 tree_arb (fun tree ->
      with_obs @@ fun () ->
      let rec exec (Node (tag, kids)) =
        Obs.span ~cat:"q" ("n" ^ string_of_int tag) (fun () ->
            List.iter exec kids)
      in
      exec tree;
      let spans = Obs.spans () in
      let by_id s = List.find (fun p -> p.Obs.sid = s) spans in
      List.length spans = tree_size tree
      && List.for_all
           (fun s ->
             s.Obs.sdur >= 0.0
             &&
             match s.Obs.sparent with
             | None -> true
             | Some pid ->
               let p = by_id pid in
               (* child interval contained in the parent's *)
               s.Obs.sstart >= p.Obs.sstart
               && s.Obs.sstart +. s.Obs.sdur <= p.Obs.sstart +. p.Obs.sdur)
           spans)

(* ------------------- Chrome trace on a real kernel ------------------- *)

let kernel name = Fpfa_kernels.Kernels.find name

let test_chrome_trace_kernel () =
  with_obs @@ fun () ->
  let k = kernel "dot-8" in
  let result = Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source in
  let ok =
    Fpfa_core.Flow.verify ~memory_init:k.Fpfa_kernels.Kernels.inputs result
  in
  Alcotest.(check bool) "kernel verifies" true ok;
  let json = Obs.chrome_trace () in
  Alcotest.(check bool) "trace is valid JSON" true (json_is_valid json);
  Alcotest.(check bool) "has traceEvents" true
    (contains json "\"traceEvents\"");
  (* all five mapping stages, plus sim cycle spans, appear as X events *)
  List.iter
    (fun stage ->
      Alcotest.(check bool) ("stage span: " ^ stage) true
        (contains json (Printf.sprintf "{\"name\":\"%s\"" stage)))
    [ "parse"; "simplify"; "cluster"; "schedule"; "allocate"; "verify" ];
  (* one span name for every cycle, so --stats prints one sim/cycle row;
     the index travels as an attribute *)
  Alcotest.(check bool) "sim cycle span" true
    (contains json "{\"name\":\"cycle\",\"cat\":\"sim\"");
  Alcotest.(check bool) "sim cycle index" true
    (contains json "\"args\":{\"index\":0,");
  Alcotest.(check bool) "complete events" true (contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "counter events" true (contains json "\"ph\":\"C\"");
  Alcotest.(check bool) "counter: sim.moves" true
    (contains json "{\"name\":\"sim.moves\"")

let test_stats_report_kernel () =
  with_obs @@ fun () ->
  let k = kernel "dot-8" in
  let _ = Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source in
  let report = Obs.stats_report () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (contains report needle))
    [
      "counters:"; "pass.rewrites"; "sched.levels"; "alloc.moves";
      "spans (cat/name, count, total):"; "flow/allocate";
    ]

(* -------------------- counters vs Mapping.Metrics -------------------- *)

(* The obs counters are incremented by independent code paths (allocator
   record-keeping, simulator execution); Mapping.Metrics recomputes the
   same quantities from the finished job. They must agree exactly. *)
let test_counters_match_metrics () =
  List.iter
    (fun (k : Fpfa_kernels.Kernels.t) ->
      with_obs @@ fun () ->
      let name = k.Fpfa_kernels.Kernels.name in
      let result = Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source in
      let m = result.Fpfa_core.Flow.metrics in
      let get cname =
        match Obs.find_counter cname with
        | Some v -> v
        | None -> Alcotest.failf "%s: counter %s never registered" name cname
      in
      Alcotest.(check int) (name ^ " alloc.moves") m.Mapping.Metrics.moves
        (get "alloc.moves");
      Alcotest.(check int)
        (name ^ " alloc.forwards")
        m.Mapping.Metrics.forwards (get "alloc.forwards");
      Alcotest.(check int)
        (name ^ " alloc.preserve_copies")
        (m.Mapping.Metrics.mem_reads - m.Mapping.Metrics.moves)
        (get "alloc.preserve_copies");
      Alcotest.(check int) (name ^ " sched.levels") m.Mapping.Metrics.levels
        (get "sched.levels");
      Alcotest.(check int)
        (name ^ " alloc.inserted_cycles")
        m.Mapping.Metrics.inserted_cycles (get "alloc.inserted_cycles");
      (* the simulator counts as it executes; metrics derive from the job *)
      let _ =
        Fpfa_sim.Sim.run ~memory_init:k.Fpfa_kernels.Kernels.inputs
          result.Fpfa_core.Flow.job
      in
      Alcotest.(check int) (name ^ " sim.cycles") m.Mapping.Metrics.cycles
        (get "sim.cycles");
      Alcotest.(check int) (name ^ " sim.moves") m.Mapping.Metrics.moves
        (get "sim.moves");
      Alcotest.(check int)
        (name ^ " sim.writebacks")
        m.Mapping.Metrics.mem_writes (get "sim.writebacks");
      Alcotest.(check int) (name ^ " sim.deletes") m.Mapping.Metrics.deletes
        (get "sim.deletes");
      Alcotest.(check int)
        (name ^ " sim.alu_firings")
        m.Mapping.Metrics.alu_firings (get "sim.alu_firings"))
    Fpfa_kernels.Kernels.all

(* The pass engine's step counter must agree with the simplifier's own
   report, which is assembled from the engine's return value. *)
let test_pass_steps_match_report () =
  with_obs @@ fun () ->
  let k = kernel "fir-paper" in
  let result = Fpfa_core.Flow.map_source k.Fpfa_kernels.Kernels.source in
  let report = result.Fpfa_core.Flow.simplify_report in
  Alcotest.(check int) "pass.steps"
    report.Transform.Simplify.steps
    (match Obs.find_counter "pass.steps" with Some v -> v | None -> -1)

let suite =
  [
    Alcotest.test_case "disabled mode is transparent" `Quick
      test_disabled_is_transparent;
    Alcotest.test_case "span nesting and parents" `Quick test_span_nesting;
    Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
    Alcotest.test_case "counter registry" `Quick test_counter_registry;
    QCheck_alcotest.to_alcotest spans_well_nested;
    Alcotest.test_case "chrome trace on dot-8" `Quick test_chrome_trace_kernel;
    Alcotest.test_case "stats report on dot-8" `Quick test_stats_report_kernel;
    Alcotest.test_case "counters match metrics" `Quick
      test_counters_match_metrics;
    Alcotest.test_case "pass.steps matches simplify report" `Quick
      test_pass_steps_match_report;
  ]
