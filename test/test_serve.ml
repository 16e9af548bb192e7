(* The serve daemon: LRU mechanics, cache-hit/miss result identity over
   the whole kernel corpus, near-miss resumption, batch admission
   through the pool, cache control, disk persistence, and the socket
   loop end to end. *)

module Serve = Fpfa_serve.Serve
module Lru = Fpfa_serve.Lru
module Json = Fpfa_util.Json
module Kernels = Fpfa_kernels.Kernels

(* {2 LRU} *)

let test_lru_basics () =
  let c = Lru.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Lru.capacity c);
  Alcotest.(check (list (pair string int))) "no evictions" []
    (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  ignore (Lru.add c "c" 3);
  Alcotest.(check int) "length" 3 (Lru.length c);
  Alcotest.(check (option int)) "find" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "miss" None (Lru.find c "zz");
  Alcotest.(check (list string)) "mru first" [ "a"; "c"; "b" ] (Lru.keys c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  ignore (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  ignore (Lru.add c "c" 3);
  (* bump a: LRU is now b *)
  ignore (Lru.find c "a");
  Alcotest.(check (list (pair string int)))
    "b evicted first" [ ("b", 2) ] (Lru.add c "d" 4);
  Alcotest.(check (list string)) "keys" [ "d"; "a"; "c" ] (Lru.keys c);
  (* replacement bumps but never evicts *)
  Alcotest.(check (list (pair string int))) "replace" [] (Lru.add c "c" 30);
  Alcotest.(check (list string)) "after replace" [ "c"; "d"; "a" ] (Lru.keys c);
  Alcotest.(check (option int)) "new value" (Some 30) (Lru.peek c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 0 s.Lru.misses

let test_lru_capacity_zero () =
  let c = Lru.create ~capacity:0 in
  Alcotest.(check (list (pair string int)))
    "fresh insert evicted" [ ("a", 1) ] (Lru.add c "a" 1);
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Alcotest.(check (option int)) "always miss" None (Lru.find c "a")

let test_lru_set_capacity () =
  let c = Lru.create ~capacity:4 in
  List.iter (fun (k, v) -> ignore (Lru.add c k v))
    [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  (* LRU first: a then b *)
  Alcotest.(check (list (pair string int)))
    "shrink evicts lru first" [ ("a", 1); ("b", 2) ] (Lru.set_capacity c 2);
  Alcotest.(check int) "new capacity" 2 (Lru.capacity c);
  Alcotest.(check (list string)) "survivors" [ "d"; "c" ] (Lru.keys c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c)

(* {2 Protocol helpers} *)

let req fmt = Format.kasprintf Json.parse fmt

let field name resp =
  match Json.member name resp with
  | Some v -> v
  | None -> Alcotest.fail ("response missing field " ^ name)

let is_ok resp =
  match field "ok" resp with Json.Bool b -> b | _ -> false

let result_bytes resp = Json.to_string (field "result" resp)

let cached_of resp =
  match field "cached" resp with Json.Str s -> Some s | _ -> None

let resumed_of resp =
  match field "resumed_from" resp with Json.Str s -> Some s | _ -> None

let expect_ok resp =
  if not (is_ok resp) then
    Alcotest.fail ("request failed: " ^ Json.to_string resp);
  resp

(* {2 Protocol basics} *)

let test_serve_ping_and_errors () =
  let s = Serve.create () in
  let pong = expect_ok (Serve.handle s (req {|{"op":"ping","id":7}|})) in
  Alcotest.(check bool) "id echoed" true (field "id" pong = Json.Int 7);
  Alcotest.(check bool)
    "unknown op rejected" false
    (is_ok (Serve.handle s (req {|{"op":"frobnicate"}|})));
  Alcotest.(check bool)
    "unknown kernel rejected" false
    (is_ok (Serve.handle s (req {|{"op":"compile","kernel":"nope-nope"}|})));
  Alcotest.(check bool)
    "bad source is an error envelope, not an exception" false
    (is_ok (Serve.handle s (req {|{"op":"compile","source":"int main( {"}|})));
  (* malformed JSON still answers with an envelope *)
  let resp = Json.parse (Serve.handle_line s "{nope") in
  Alcotest.(check bool) "parse error envelope" false (is_ok resp);
  Alcotest.(check bool) "still running" true (Serve.running s);
  ignore (expect_ok (Serve.handle s (req {|{"op":"shutdown"}|})));
  Alcotest.(check bool) "stopped" false (Serve.running s);
  Serve.shutdown s

(* The command line and the daemon resolve names by one rule each:
   kernels by [Kernels.resolve] (an exact name, else the first prefix
   match in corpus order), variants by [Baseline.find]. *)
let test_name_resolution () =
  let names = List.map (fun (k : Kernels.t) -> k.Kernels.name) in
  let fir = names (Kernels.resolve "fir") in
  Alcotest.(check string) "the prefix fir takes the first match" "fir-paper"
    (List.hd fir);
  Alcotest.(check bool) "and is ambiguous" true (List.length fir > 1);
  Alcotest.(check (list string)) "an exact name wins" [ "fir-16" ]
    (names (Kernels.resolve "fir-16"));
  Alcotest.(check (list string)) "an unknown name matches nothing" []
    (names (Kernels.resolve "nope-nope"));
  Alcotest.(check (option string)) "variant by name" (Some "sarkar")
    (Option.map
       (fun (v : Baseline.variant) -> v.Baseline.vname)
       (Baseline.find "sarkar"));
  Alcotest.(check bool) "unknown variant" true (Baseline.find "sark" = None);
  let s = Serve.create ~cache_size:0 () in
  let compile fields = Serve.handle s (req {|{"op":"compile",%s}|} fields) in
  Alcotest.(check string) "serve maps the prefix to the same kernel"
    (result_bytes (expect_ok (compile {|"kernel":"fir-paper"|})))
    (result_bytes (expect_ok (compile {|"kernel":"fir"|})));
  Alcotest.(check bool) "serve rejects the unknown kernel" false
    (is_ok (compile {|"kernel":"nope-nope"|}));
  Alcotest.(check bool) "serve rejects the unknown variant" false
    (is_ok (compile {|"kernel":"fir","variant":"sark"|}));
  Serve.shutdown s

(* {2 Cache semantics: hit equals miss, byte for byte, whole corpus} *)

let test_corpus_hit_equals_miss () =
  let cached = Serve.create ~cache_size:256 () in
  let uncached = Serve.create ~cache_size:0 () in
  List.iter
    (fun (k : Kernels.t) ->
      let r = req {|{"op":"compile","kernel":"%s"}|} k.Kernels.name in
      let cold = expect_ok (Serve.handle cached r) in
      let warm = expect_ok (Serve.handle cached r) in
      let off = expect_ok (Serve.handle uncached r) in
      Alcotest.(check (option string))
        (k.Kernels.name ^ " cold not cached")
        None (cached_of cold);
      Alcotest.(check (option string))
        (k.Kernels.name ^ " warm is a request hit")
        (Some "request") (cached_of warm);
      Alcotest.(check string)
        (k.Kernels.name ^ " warm result identical")
        (result_bytes cold) (result_bytes warm);
      Alcotest.(check string)
        (k.Kernels.name ^ " cache-off result identical")
        (result_bytes cold) (result_bytes off);
      Alcotest.(check string)
        (k.Kernels.name ^ " digest stable")
        (Json.to_string (field "digest" cold))
        (Json.to_string (field "digest" off)))
    Kernels.all;
  Serve.shutdown cached;
  Serve.shutdown uncached

(* A mapping-level hit: same CDFG+config reached through a different
   request spelling (explicit tile values = the variant's defaults). *)
let test_mapping_level_hit () =
  let s = Serve.create () in
  let r1 = expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"dct4"}|})) in
  let r2 =
    expect_ok
      (Serve.handle s
         (req {|{"op":"compile","kernel":"dct4","alus":5,"buses":10}|}))
  in
  Alcotest.(check (option string)) "request-level miss, mapping-level hit"
    (Some "mapping") (cached_of r2);
  Alcotest.(check string) "same payload" (result_bytes r1) (result_bytes r2);
  Serve.shutdown s

(* The bitopt toggle changes the minimised graph, so it is part of the
   config fingerprint: flipping it must miss every cache level and
   produce a different mapping on a kernel the pass rewrites. *)
let test_bitopt_keys_cache () =
  let s = Serve.create () in
  let on_ =
    expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"pack565-4"}|}))
  in
  let off =
    expect_ok
      (Serve.handle s
         (req {|{"op":"compile","kernel":"pack565-4","bitopt":false}|}))
  in
  Alcotest.(check (option string)) "toggle misses the mapping cache" None
    (cached_of off);
  Alcotest.(check bool)
    "toggle changes the mapping" false
    (String.equal (result_bytes on_) (result_bytes off));
  (* spelling the default explicitly lands on the same fingerprint *)
  let explicit =
    expect_ok
      (Serve.handle s
         (req {|{"op":"compile","kernel":"pack565-4","bitopt":true}|}))
  in
  Alcotest.(check (option string)) "explicit default hits" (Some "mapping")
    (cached_of explicit);
  Alcotest.(check string) "same payload" (result_bytes on_)
    (result_bytes explicit);
  Serve.shutdown s

(* The assumed input width changes which rewrites the bit-level stage
   can justify, so it too is part of the config fingerprint: a non-default
   width must miss the mapping cache, and spelling the default width
   explicitly must land on the default fingerprint. *)
let test_width_keys_cache () =
  let s = Serve.create () in
  let default =
    expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"pack565-4"}|}))
  in
  let wide =
    expect_ok
      (Serve.handle s
         (req {|{"op":"compile","kernel":"pack565-4","width":32}|}))
  in
  Alcotest.(check (option string)) "width change misses the mapping cache"
    None (cached_of wide);
  let explicit =
    expect_ok
      (Serve.handle s
         (req {|{"op":"compile","kernel":"pack565-4","width":16}|}))
  in
  Alcotest.(check (option string)) "explicit default width hits"
    (Some "mapping") (cached_of explicit);
  Alcotest.(check string) "same payload as the default" (result_bytes default)
    (result_bytes explicit);
  (* out-of-range widths are rejected, not silently clamped *)
  Alcotest.(check bool) "width 64 rejected" false
    (is_ok (Serve.handle s (req {|{"op":"compile","kernel":"fir","width":64}|})));
  Serve.shutdown s

(* An ALU-count tweak after the whole corpus is cached resumes every
   kernel mid-flow, with the bytes of a fresh compile. *)
let test_near_miss_resumes () =
  let s = Serve.create () in
  let uncached = Serve.create ~cache_size:0 () in
  List.iter
    (fun (k : Kernels.t) ->
      let r = req {|{"op":"compile","kernel":"%s"}|} k.Kernels.name in
      ignore (expect_ok (Serve.handle s r)))
    Kernels.all;
  List.iter
    (fun (k : Kernels.t) ->
      let r = req {|{"op":"compile","kernel":"%s","alus":3}|} k.Kernels.name in
      let resumed = expect_ok (Serve.handle s r) in
      let fresh = expect_ok (Serve.handle uncached r) in
      Alcotest.(check bool)
        (k.Kernels.name ^ " resumed from a later phase")
        true
        (resumed_of resumed <> None);
      Alcotest.(check string)
        (k.Kernels.name ^ " resumed result equals fresh compile")
        (result_bytes fresh) (result_bytes resumed))
    Kernels.all;
  (* Changing only the allocator-facing window resumes even later. The
     digest index tracks the most recent entry, so use a fresh daemon
     whose cached checkpoint has the same ALU count. *)
  let s2 = Serve.create () in
  ignore
    (expect_ok (Serve.handle s2 (req {|{"op":"compile","kernel":"fir-paper"}|})));
  let resumed2 =
    expect_ok
      (Serve.handle s2 (req {|{"op":"compile","kernel":"fir-paper","window":3}|}))
  in
  let fresh2 =
    expect_ok
      (Serve.handle uncached
         (req {|{"op":"compile","kernel":"fir-paper","window":3}|}))
  in
  Alcotest.(check (option string))
    "window change resumes at scheduled" (Some "scheduled")
    (resumed_of resumed2);
  Alcotest.(check string)
    "window resume result equals fresh"
    (result_bytes fresh2) (result_bytes resumed2);
  Serve.shutdown s;
  Serve.shutdown s2;
  Serve.shutdown uncached

(* {2 Batch admission through the pool: the concurrent-clients hammer} *)

let test_batch_hammer_matches_sequential () =
  let names = List.map (fun (k : Kernels.t) -> k.Kernels.name) Kernels.all in
  (* every kernel twice, interleaved, like impatient clients re-asking *)
  let hammer = names @ names in
  let sub name = Printf.sprintf {|{"op":"compile","kernel":"%s"}|} name in
  let batch_req =
    req {|{"op":"batch","requests":[%s]}|}
      (String.concat "," (List.map sub hammer))
  in
  let parallel = Serve.create ~jobs:4 () in
  let sequential = Serve.create ~jobs:1 () in
  let presp = expect_ok (Serve.handle parallel batch_req) in
  let responses =
    match Json.member "responses" (field "result" presp) with
    | Some (Json.List rs) -> rs
    | _ -> Alcotest.fail "batch result has no responses"
  in
  Alcotest.(check int) "one response per request" (List.length hammer)
    (List.length responses);
  List.iter2
    (fun name resp ->
      let resp = expect_ok resp in
      let direct =
        expect_ok (Serve.handle sequential (req "%s" (sub name)))
      in
      Alcotest.(check string)
        (name ^ " batch equals sequential")
        (result_bytes direct) (result_bytes resp))
    hammer responses;
  (* second round of the same batch is answered from the request cache *)
  let again = expect_ok (Serve.handle parallel batch_req) in
  (match Json.member "responses" (field "result" again) with
  | Some (Json.List rs) ->
    List.iter
      (fun r ->
        Alcotest.(check (option string))
          "warm batch hit" (Some "request")
          (cached_of (expect_ok r)))
      rs
  | _ -> Alcotest.fail "batch result has no responses");
  Serve.shutdown parallel;
  Serve.shutdown sequential

(* {2 Sweep via rewind matches cold compiles} *)

(* The daemon's sweep rewinds one minimised checkpoint per point (on its
   pool when it has one); the reference compiles every point from
   scratch. *)
let test_sweep_matches_reference () =
  let module Flow = Fpfa_core.Flow in
  let module Arch = Fpfa_arch.Arch in
  let source =
    (List.find (fun (k : Kernels.t) -> k.Kernels.name = "dot-8") Kernels.all)
      .Kernels.source
  in
  let expected =
    List.map
      (fun alus ->
        let tile = Arch.with_alu_count alus Arch.paper_tile in
        (Flow.map_source ~config:{ Flow.default_config with Flow.tile } source)
          .Flow.metrics)
      [ 2; 3; 5 ]
  in
  List.iter
    (fun jobs ->
      let s = Serve.create ~jobs () in
      let resp =
        expect_ok
          (Serve.handle s
             (req {|{"op":"sweep","kernel":"dot-8","axis":"alus","values":[2,3,5]}|}))
      in
      let rows =
        match Json.member "rows" (field "result" resp) with
        | Some (Json.List rows) -> rows
        | _ -> Alcotest.fail "sweep result has no rows"
      in
      Alcotest.(check int) "row count" (List.length expected) (List.length rows);
      List.iter2
        (fun (m : Mapping.Metrics.t) json ->
          let get name =
            match Json.member name json with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.fail ("row missing " ^ name)
          in
          Alcotest.(check int) "cycles" m.Mapping.Metrics.cycles (get "cycles");
          Alcotest.(check int) "levels" m.Mapping.Metrics.levels (get "levels");
          Alcotest.(check int) "moves" m.Mapping.Metrics.moves (get "moves");
          Alcotest.(check int) "stalls" m.Mapping.Metrics.inserted_cycles
            (get "stalls"))
        expected rows;
      Serve.shutdown s)
    [ 1; 4 ]

(* A tile the configuration image cannot describe is a bad request,
   whether the request names it or a sweep reaches it. *)
let test_bad_tiles_rejected () =
  let s = Serve.create () in
  let error r =
    let resp = Serve.handle s r in
    Alcotest.(check bool) "rejected" false (is_ok resp);
    match field "error" resp with
    | Json.Str msg -> msg
    | _ -> Alcotest.fail "error envelope without text"
  in
  Alcotest.(check string) "compile"
    "bad tile: tile: buses must be at most 255"
    (error (req {|{"op":"compile","kernel":"dot-8","buses":256}|}));
  Alcotest.(check string) "sweep"
    "sweep failed: point buses=300: tile: buses must be at most 255"
    (error
       (req {|{"op":"sweep","kernel":"dot-8","axis":"buses","values":[2,300]}|}));
  Serve.shutdown s

(* {2 Check through the daemon} *)

let test_check_clean_kernel () =
  let s = Serve.create () in
  let resp =
    expect_ok (Serve.handle s (req {|{"op":"check","kernel":"dct4"}|}))
  in
  (match Json.member "errors" (field "result" resp) with
  | Some (Json.Int 0) -> ()
  | other ->
    Alcotest.fail
      ("expected 0 errors, got "
      ^ match other with Some v -> Json.to_string v | None -> "nothing"));
  (* identical request: request-level hit with the same bytes *)
  let warm = expect_ok (Serve.handle s (req {|{"op":"check","kernel":"dct4"}|})) in
  Alcotest.(check (option string)) "check cached" (Some "request")
    (cached_of warm);
  Alcotest.(check string) "check bytes stable" (result_bytes resp)
    (result_bytes warm);
  Serve.shutdown s

(* {2 Cache control and stats} *)

(* [stat resp level name]: one tally of one cache level in a stats
   response. *)
let stat resp level name =
  match
    Option.bind
      (Json.member "cache" (field "result" resp))
      (fun c -> Option.bind (Json.member level c) (Json.member name))
  with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "stats missing cache %s %s" level name

let stats_of s = expect_ok (Serve.handle s (req {|{"op":"stats"}|}))

let test_cache_control () =
  let s = Serve.create ~cache_size:8 () in
  ignore (expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"dct4"}|})));
  let stats1 = stats_of s in
  let entries resp level = stat resp level "entries" in
  Alcotest.(check int) "request entry cached" 1 (entries stats1 "request");
  Alcotest.(check int) "program indexed" 1 (entries stats1 "program");
  Alcotest.(check int) "mapping entry cached" 1 (entries stats1 "mapping");
  ignore (expect_ok (Serve.handle s (req {|{"op":"cache","action":"clear"}|})));
  let stats2 = stats_of s in
  Alcotest.(check int) "cleared request" 0 (entries stats2 "request");
  Alcotest.(check int) "cleared program index" 0 (entries stats2 "program");
  Alcotest.(check int) "cleared mapping" 0 (entries stats2 "mapping");
  let resized =
    expect_ok
      (Serve.handle s (req {|{"op":"cache","action":"resize","capacity":2}|}))
  in
  Alcotest.(check bool)
    "resize acknowledged" true
    (Json.member "capacity" (field "result" resized) = Some (Json.Int 2));
  List.iter
    (fun k ->
      ignore
        (expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"%s"}|} k))))
    [ "dct4"; "dot-8"; "fir-paper" ];
  let stats3 = stats_of s in
  Alcotest.(check int) "resized program index" 2 (stat stats3 "program" "capacity");
  Alcotest.(check int) "program index holds two" 2 (entries stats3 "program");
  Alcotest.(check int) "program index evicted one" 1
    (stat stats3 "program" "evictions");
  Alcotest.(check bool)
    "bad action rejected" false
    (is_ok (Serve.handle s (req {|{"op":"cache","action":"defrost"}|})));
  Serve.shutdown s

(* {2 The program index} *)

let front_end_spans () =
  List.filter
    (fun (sp : Fpfa_obs.Obs.finished_span) ->
      sp.Fpfa_obs.Obs.scat = "flow"
      && List.mem sp.Fpfa_obs.Obs.sname [ "parse"; "inline"; "unroll"; "build" ])
    (Fpfa_obs.Obs.spans ())

(* [f ()] with Obs recording, and the front-end spans it recorded. *)
let observed f =
  let module Obs = Fpfa_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let v = f () in
      (v, List.length (front_end_spans ())))

(* A program the daemon has built resolves to its digest without a
   second front end: a near miss rewinds and a respelling hits the
   mapping cache, both with the bytes of a cache-off daemon. *)
let test_index_skips_front_end () =
  let s = Serve.create () in
  let off = Serve.create ~cache_size:0 () in
  let compile = req {|{"op":"compile","kernel":"dct4"}|} in
  let near = req {|{"op":"compile","kernel":"dct4","alus":3}|} in
  let respelt = req {|{"op":"compile","kernel":"dct4","alus":5,"buses":10}|} in
  let _, cold_spans = observed (fun () -> expect_ok (Serve.handle s compile)) in
  Alcotest.(check int) "a cold compile runs the four front-end stages" 4
    cold_spans;
  let (rewound, hit), spans =
    observed (fun () ->
        let rewound = expect_ok (Serve.handle s near) in
        (rewound, expect_ok (Serve.handle s respelt)))
  in
  Alcotest.(check int) "no front-end span" 0 spans;
  Alcotest.(check (option string)) "near miss rewinds" (Some "clustered")
    (resumed_of rewound);
  Alcotest.(check (option string)) "respelling hits" (Some "mapping")
    (cached_of hit);
  List.iter
    (fun (name, r, got) ->
      let want = expect_ok (Serve.handle off r) in
      Alcotest.(check string) (name ^ " bytes") (result_bytes want)
        (result_bytes got);
      Alcotest.(check string) (name ^ " digest")
        (Json.to_string (field "digest" want))
        (Json.to_string (field "digest" got)))
    [ ("near miss", near, rewound); ("respelling", respelt, hit) ];
  let stats = stats_of s in
  Alcotest.(check int) "index hits" 2 (stat stats "program" "hits");
  Alcotest.(check int) "index misses" 1 (stat stats "program" "misses");
  Serve.shutdown s;
  Serve.shutdown off

(* A program whose front end raises is never indexed, and every attempt
   fails with the same text as on a cache-off daemon. *)
let test_index_skips_failures () =
  let s = Serve.create () in
  let off = Serve.create ~cache_size:0 () in
  let bad = req {|{"op":"compile","source":"void main() { x = ; }"}|} in
  let error resp =
    match field "error" resp with
    | Json.Str msg -> msg
    | _ -> Alcotest.fail "error envelope without text"
  in
  let want = error (Serve.handle off bad) in
  List.iter
    (fun attempt ->
      Alcotest.(check string) (attempt ^ " error text") want
        (error (Serve.handle s bad)))
    [ "first"; "second" ];
  let stats = stats_of s in
  Alcotest.(check int) "not indexed" 0 (stat stats "program" "entries");
  Alcotest.(check int) "both attempts missed" 2 (stat stats "program" "misses");
  Serve.shutdown s;
  Serve.shutdown off

(* With caches off the index never hits: every compile runs the front
   end, as the daemon always did. *)
let test_index_capacity_zero () =
  let s = Serve.create ~cache_size:0 () in
  let r = req {|{"op":"compile","kernel":"dct4","alus":3}|} in
  let (first, second), spans =
    observed (fun () ->
        let first = expect_ok (Serve.handle s r) in
        (first, expect_ok (Serve.handle s r)))
  in
  Alcotest.(check int) "two front ends" 8 spans;
  Alcotest.(check (option string)) "computed" None (cached_of second);
  Alcotest.(check string) "same bytes" (result_bytes first) (result_bytes second);
  let stats = stats_of s in
  Alcotest.(check int) "no index hit" 0 (stat stats "program" "hits");
  Alcotest.(check int) "index empty" 0 (stat stats "program" "entries");
  Serve.shutdown s

let test_disk_cache_survives_restart () =
  let dir = Filename.temp_file "fpfa_serve" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      let a = Serve.create ~cache_dir:dir () in
      let cold =
        expect_ok (Serve.handle a (req {|{"op":"compile","kernel":"dct4"}|}))
      in
      Serve.shutdown a;
      (* a fresh daemon with an empty memory cache hits the disk store *)
      let b = Serve.create ~cache_dir:dir () in
      let warm =
        expect_ok (Serve.handle b (req {|{"op":"compile","kernel":"dct4"}|}))
      in
      Alcotest.(check (option string)) "disk hit" (Some "disk")
        (cached_of warm);
      Alcotest.(check string) "disk result identical" (result_bytes cold)
        (result_bytes warm);
      Serve.shutdown b)

(* {2 Cached edit chains} *)

(* Two independent loops; the concurrent-client tests give each client
   its own gain constant. *)
let two_loop_src k =
  Printf.sprintf
    {|void main() {
  sum = 0;
  for (i = 0; i < 8; i = i + 1) {
    sum = sum + a[i] * c[i];
  }
  gain = 0;
  for (j = 0; j < 8; j = j + 1) {
    gain = gain + %d * b[j];
  }
}|}
    k

let compile_src ?id src =
  Json.Obj
    (("op", Json.Str "compile") :: ("source", Json.Str src)
    :: (match id with Some n -> [ ("id", Json.Int n) ] | None -> []))

(* [src] with the first occurrence of [sub] replaced by [by]. *)
let edit ~sub ~by src =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length src then Alcotest.failf "%S not in source" sub
    else if String.equal (String.sub src i n) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ by ^ String.sub src (i + n) (String.length src - i - n)

(* Literal edits of one kernel, compiled in order on a daemon that keeps
   every earlier step cached. The third step edits the original source
   again, so it misses every cache level next to two cached relatives.
   Without [verify], each answer must still carry the bytes of a
   cache-off daemon. *)
let test_edit_chain_equals_cold () =
  let source = (Kernels.find "mavg-4-6").Kernels.source in
  let chain =
    [
      source;
      edit ~sub:"acc = 0;" ~by:"acc = 1;" source;
      edit ~sub:"i < 6" ~by:"i < 4" source;
    ]
  in
  let s = Serve.create () in
  let cold = Serve.create ~cache_size:0 () in
  List.iteri
    (fun i src ->
      let got = expect_ok (Serve.handle s (compile_src src)) in
      let want = expect_ok (Serve.handle cold (compile_src src)) in
      Alcotest.(check string)
        (Printf.sprintf "step %d equals a cold compile" (i + 1))
        (result_bytes want) (result_bytes got))
    chain;
  Serve.shutdown s;
  Serve.shutdown cold

(* {2 Disk GC: the byte budget holds and evictions are counted} *)

let with_temp_dir f =
  let dir = Filename.temp_file "fpfa_serve" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let test_disk_gc () =
  let kernels = [ "dct4"; "dot-8"; "fir-paper"; "saxpy-8" ] in
  let compile s k =
    ignore (expect_ok (Serve.handle s (req {|{"op":"compile","kernel":"%s"}|} k)))
  in
  (* measure entry sizes unbounded, then rerun under a two-entry budget *)
  let budget =
    with_temp_dir (fun dir ->
        let a = Serve.create ~cache_dir:dir () in
        List.iter (compile a) kernels;
        Serve.shutdown a;
        let largest =
          Array.fold_left
            (fun acc f ->
              max acc (Unix.stat (Filename.concat dir f)).Unix.st_size)
            0 (Sys.readdir dir)
        in
        2 * largest)
  in
  with_temp_dir (fun dir ->
      let b = Serve.create ~cache_dir:dir ~cache_disk_max:budget () in
      List.iter (compile b) kernels;
      Alcotest.(check bool) "disk store within budget" true
        (dir_bytes dir <= budget);
      let stats = expect_ok (Serve.handle b (req {|{"op":"stats"}|})) in
      (match Json.member "disk_evictions" (field "result" stats) with
      | Some (Json.Int n) ->
        Alcotest.(check bool) "evictions counted" true (n >= 1)
      | _ -> Alcotest.fail "stats missing disk_evictions");
      Serve.shutdown b;
      (* a restart under the same budget sweeps on startup and still
         serves: every kernel answers, from disk or recomputed *)
      let c = Serve.create ~cache_dir:dir ~cache_disk_max:budget () in
      List.iter (compile c) kernels;
      Alcotest.(check bool) "budget holds after restart" true
        (dir_bytes dir <= budget);
      Serve.shutdown c)

(* {2 The socket loop, end to end} *)

let test_socket_roundtrip () =
  let path = Filename.temp_file "fpfa_serve" ".sock" in
  Sys.remove path;
  (* The server loop runs on its own domain (fork is off-limits once
     pools have spawned domains); this domain plays the client. The
     daemon's state is only ever touched from the serving domain. *)
  let s = Serve.create () in
  let server =
    Domain.spawn (fun () ->
        try Serve.serve_socket s ~path with _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Serve.shutdown s;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* wait for the listener *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let rec connect tries =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> ()
        | exception Unix.Unix_error _ when tries > 0 ->
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      connect 100;
      let ic = Unix.in_channel_of_descr fd in
      let send line =
        let line = line ^ "\n" in
        ignore (Unix.write_substring fd line 0 (String.length line))
      in
      send {|{"op":"ping","id":1}|};
      send {|{"op":"compile","kernel":"dct4","id":2}|};
      send {|{"op":"shutdown","id":3}|};
      let l1 = Json.parse (input_line ic) in
      let l2 = Json.parse (input_line ic) in
      let l3 = Json.parse (input_line ic) in
      Alcotest.(check bool) "ping ok" true (is_ok l1);
      Alcotest.(check bool) "compile ok" true (is_ok l2);
      Alcotest.(check bool) "shutdown ok" true (is_ok l3);
      Unix.close fd)

(* Several client domains hammer one socket daemon with a mix of cold,
   warm, and near-miss compiles. The select loop must keep the streams
   apart: every response line parses, ids come back on the connection
   that sent them in order, and payloads are byte-identical to a
   cache-off daemon answering sequentially. *)
let test_socket_stress () =
  let n_clients = 4 in
  let path = Filename.temp_file "fpfa_serve" ".sock" in
  Sys.remove path;
  (* expected payloads, computed sequentially up front *)
  let reference = Serve.create ~cache_size:0 () in
  let expect_kernel k =
    result_bytes
      (expect_ok (Serve.handle reference (req {|{"op":"compile","kernel":"%s"}|} k)))
  in
  let dct4_bytes = expect_kernel "dct4" in
  let dot_bytes = expect_kernel "dot-8" in
  let variant_bytes =
    List.init n_clients (fun c ->
        result_bytes
          (expect_ok (Serve.handle reference (compile_src (two_loop_src (c + 1))))))
  in
  Serve.shutdown reference;
  let s = Serve.create () in
  let server =
    Domain.spawn (fun () -> try Serve.serve_socket s ~path with _ -> ())
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec go tries =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> ()
      | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.05;
        go (tries - 1)
    in
    go 100;
    fd
  in
  let send fd j =
    let line = Json.to_string j ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line))
  in
  (* Client [c] pipelines four requests — cold/warm kernel compiles plus
     its own near-miss source — then reads its four response lines. *)
  let client c =
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd in
    let reqs =
      [
        req {|{"op":"ping","id":%d}|} (100 * c);
        req {|{"op":"compile","kernel":"dct4","id":%d}|} ((100 * c) + 1);
        compile_src ~id:((100 * c) + 2) (two_loop_src c);
        req {|{"op":"compile","kernel":"dot-8","id":%d}|} ((100 * c) + 3);
      ]
    in
    List.iter (send fd) reqs;
    let resps = List.map (fun _ -> Json.parse (input_line ic)) reqs in
    Unix.close fd;
    resps
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Serve.shutdown s;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let clients =
        List.init n_clients (fun c -> Domain.spawn (fun () -> client (c + 1)))
      in
      let results = List.map Domain.join clients in
      (* stop the serving loop before checking, so a failure can't hang *)
      let fd = connect () in
      send fd (req {|{"op":"shutdown"}|});
      ignore (input_line (Unix.in_channel_of_descr fd));
      Unix.close fd;
      List.iteri
        (fun i resps ->
          let c = i + 1 in
          List.iteri
            (fun k resp ->
              let resp = expect_ok resp in
              Alcotest.(check bool)
                (Printf.sprintf "client %d id %d correlated" c k)
                true
                (field "id" resp = Json.Int ((100 * c) + k)))
            resps;
          match List.map (fun r -> result_bytes r) resps with
          | [ _ping; dct4; variant; dot ] ->
            Alcotest.(check string)
              (Printf.sprintf "client %d dct4 bytes" c)
              dct4_bytes dct4;
            Alcotest.(check string)
              (Printf.sprintf "client %d near-miss bytes" c)
              (List.nth variant_bytes (c - 1))
              variant;
            Alcotest.(check string)
              (Printf.sprintf "client %d dot-8 bytes" c)
              dot_bytes dot
          | _ -> Alcotest.fail "wrong response count")
        results)

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
    Alcotest.test_case "lru set capacity" `Quick test_lru_set_capacity;
    Alcotest.test_case "ping and errors" `Quick test_serve_ping_and_errors;
    Alcotest.test_case "name resolution" `Quick test_name_resolution;
    Alcotest.test_case "corpus hit equals miss" `Quick
      test_corpus_hit_equals_miss;
    Alcotest.test_case "mapping-level hit" `Quick test_mapping_level_hit;
    Alcotest.test_case "bitopt keys cache" `Quick test_bitopt_keys_cache;
    Alcotest.test_case "width keys cache" `Quick test_width_keys_cache;
    Alcotest.test_case "near-miss resumes" `Quick test_near_miss_resumes;
    Alcotest.test_case "batch hammer" `Quick test_batch_hammer_matches_sequential;
    Alcotest.test_case "sweep matches reference" `Quick
      test_sweep_matches_reference;
    Alcotest.test_case "bad tiles rejected" `Quick test_bad_tiles_rejected;
    Alcotest.test_case "check via daemon" `Quick test_check_clean_kernel;
    Alcotest.test_case "cache control" `Quick test_cache_control;
    Alcotest.test_case "index skips the front end" `Quick
      test_index_skips_front_end;
    Alcotest.test_case "index skips failures" `Quick test_index_skips_failures;
    Alcotest.test_case "index at capacity zero" `Quick test_index_capacity_zero;
    Alcotest.test_case "disk cache" `Quick test_disk_cache_survives_restart;
    Alcotest.test_case "cached edit chains equal cold compiles" `Quick
      test_edit_chain_equals_cold;
    Alcotest.test_case "disk gc" `Quick test_disk_gc;
    Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
    Alcotest.test_case "socket stress" `Quick test_socket_stress;
  ]
