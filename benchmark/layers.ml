(* Per-layer accounting for the traced run.

   The benchmark wraps each public call it makes in a span of category
   "bench"; the library's own stage spans nest inside. Spans are drained
   after every pass (every block of requests on serve), so memory stays
   bounded however long the run is, and aggregated by layer. A layer's
   time is its self time within its own category: the span's duration
   minus the children of the same category. So a "bench" span keeps the
   library work it wraps, and the library's "simplify" stage keeps the
   worklist engine it drives. *)

module Obs = Fpfa_obs.Obs

let span name f = Obs.span ~cat:"bench" name f

(* Span names with a variable suffix aggregate under their stem:
   "cycle 12" -> "cycle". *)
let stem name =
  match String.rindex_opt name ' ' with
  | Some i
    when i + 1 < String.length name
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub name (i + 1) (String.length name - i - 1)) ->
    String.sub name 0 i
  | _ -> name

let layer_of cat name =
  match (cat, name) with
  | "bench", "request" -> Some "serve.request"
  | "bench", _ -> Some name
  | "flow", "parse" -> Some "cfront.parse"
  | "flow", "inline" -> Some "cfront.inline"
  | "flow", "unroll" -> Some "cfront.unroll"
  | "flow", "build" -> Some "cdfg.build"
  | "flow", ("validate" | "simplify-validate") -> Some "cdfg.validate"
  | "flow", ("simplify" | "simplify-incr") -> Some "transform.simplify"
  | "flow", "bitopt" -> Some "transform.bitopt"
  | "flow", "disambig" -> Some "analysis.disambig"
  | "flow", ("cluster" | "schedule" | "allocate") -> Some ("mapping." ^ name)
  | "sim", "cycle" -> Some "sim.cycle"
  | _ -> None

type t = {
  ms : (string, float) Hashtbl.t;
  minor : (string, float) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  trace_out : string option;
  mutable first_drain : bool;
}

let start ~trace_out =
  Obs.set_clock Unix.gettimeofday;
  Obs.reset ();
  Obs.enable_gc ();
  Obs.enable ();
  {
    ms = Hashtbl.create 32;
    minor = Hashtbl.create 32;
    counters = Hashtbl.create 64;
    trace_out;
    first_drain = true;
  }

let stop () =
  Obs.disable ();
  Obs.disable_gc ()

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v)

let minor_words (s : Obs.finished_span) =
  match List.assoc_opt "gc.minor_words" s.Obs.sargs with
  | Some (Obs.Int n) -> float_of_int n
  | _ -> 0.0

(* The Chrome trace holds the first drained pass only: enough to see one
   pass's timeline without a trace file that grows with the run. *)
let drain t =
  (match t.trace_out with
  | Some path when t.first_drain -> Obs.write_chrome_trace path
  | _ -> ());
  t.first_drain <- false;
  let spans = Obs.spans () in
  let counters = Obs.counters () in
  Obs.reset ();
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.finished_span) -> Hashtbl.replace by_id s.Obs.sid s) spans;
  let child_s = Hashtbl.create 1024 and child_minor = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.finished_span) ->
      match Option.bind s.Obs.sparent (Hashtbl.find_opt by_id) with
      | Some (p : Obs.finished_span) when String.equal p.Obs.scat s.Obs.scat ->
        add child_s p.Obs.sid s.Obs.sdur;
        add child_minor p.Obs.sid (minor_words s)
      | _ -> ())
    spans;
  List.iter
    (fun (s : Obs.finished_span) ->
      match layer_of s.Obs.scat (stem s.Obs.sname) with
      | Some layer ->
        add t.ms layer ((s.Obs.sdur -. get child_s s.Obs.sid) *. 1e3);
        add t.minor layer (minor_words s -. get child_minor s.Obs.sid)
      | None -> ())
    spans;
  List.iter
    (fun (name, v) ->
      Hashtbl.replace t.counters name
        (v + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))
    counters

let ms t layer = get t.ms layer
let minor_mw t layer = get t.minor layer /. 1e6

let counter t name =
  float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counters name))
