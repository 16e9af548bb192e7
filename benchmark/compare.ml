(* [--compare OLD.json NEW.json]: a verdict per workload and end-to-end
   metric, from the bounds in BENCHMARK.json and the spread of each
   side's segments. *)

module Json = Fpfa_util.Json

let load path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

let field name v =
  match Json.member name v with Some x -> x | None -> failwith ("no field " ^ name)

let list v = Option.value ~default:[] (Json.to_list v)

let number = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Float.nan

(* name -> (bound, better) for every end-to-end metric of the spec *)
let bounds spec =
  List.map
    (fun m ->
      let better =
        match Json.to_string_opt (field "better" m) with
        | Some "higher" -> Spec.Higher
        | _ -> Spec.Lower
      in
      (Option.get (Json.to_string_opt (field "name" m)), (number (field "bound" m), better)))
    (list (field "end_to_end" spec))

(* How much worse [b] is than [a], as a share of [a]. *)
let worse_by better a b =
  let d = match better with Spec.Lower -> b -. a | Spec.Higher -> a -. b in
  if a = 0.0 then (if d = 0.0 then 0.0 else Float.infinity *. d) else d /. Float.abs a

(* Within the noise of either side, a metric is unresolved unless every
   new segment beats every old one. *)
let verdict ~bound ~better old_segs new_segs =
  let change = worse_by better (Stats.median old_segs) (Stats.median new_segs) in
  let noise = Float.max (Stats.spread old_segs) (Stats.spread new_segs) in
  let beats a b = match better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let all_beat =
    Array.for_all (fun n -> Array.for_all (fun o -> beats n o) old_segs) new_segs
  in
  let v =
    if noise > bound then if all_beat then "better" else "unresolved"
    else if change > bound then "worse"
    else if change < -.bound then "better"
    else "same"
  in
  (v, change)

let workloads results =
  List.map (fun w -> (Option.get (Json.to_string_opt (field "name" w)), w)) (list (field "workloads" results))

let run ~spec ~old_path ~new_path =
  let bounds = bounds (load spec) in
  let old_ws = workloads (load old_path) and new_ws = workloads (load new_path) in
  List.iter
    (fun (name, nw) ->
      match List.assoc_opt name old_ws with
      | Some ow when field "digest" ow <> field "digest" nw ->
        Printf.eprintf "compare: the %s op lists differ (digests %s, %s); refusing to compare\n"
          name (Json.to_string (field "digest" ow)) (Json.to_string (field "digest" nw));
        exit 2
      | _ -> ())
    new_ws;
  let any_worse = ref false in
  Printf.printf "%-8s %-16s %12s %12s %9s %7s  %s\n" "workload" "metric" "old" "new" "worse_by" "bound" "verdict";
  List.iter
    (fun (name, nw) ->
      match List.assoc_opt name old_ws with
      | None -> Printf.printf "%-8s (not in %s)\n" name old_path
      | Some ow ->
        List.iter
          (fun (metric, (bound, better)) ->
            let segs w =
              Option.map
                (fun m -> Array.of_list (List.map number (list (field "segments" m))))
                (Json.member metric (field "metrics" w))
            in
            match (segs ow, segs nw) with
            | Some o, Some n ->
              let v, change = verdict ~bound ~better o n in
              if v = "worse" then any_worse := true;
              Printf.printf "%-8s %-16s %12.6g %12.6g %+8.2f%% %6.2f%%  %s\n" name metric
                (Stats.median o) (Stats.median n) (100.0 *. change) (100.0 *. bound) v
            | _ -> Printf.printf "%-8s %-16s (not in both files)\n" name metric)
          bounds)
    new_ws;
  if !any_worse then exit 1
