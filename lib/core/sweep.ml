module Arch = Fpfa_arch.Arch
module Pool = Fpfa_exec.Pool
module Obs = Fpfa_obs.Obs

let c_points = Obs.counter "sweep.points"

type axis = Alu_count | Buses | Move_window

let axis_name = function
  | Alu_count -> "alus"
  | Buses -> "buses"
  | Move_window -> "window"

let axis_of_string = function
  | "alus" | "alu" -> Some Alu_count
  | "buses" | "bus" | "lanes" -> Some Buses
  | "window" | "move-window" -> Some Move_window
  | _ -> None

type point = { axis : axis; value : int }

let points axis values = List.map (fun value -> { axis; value }) values

(* The classic study of examples/design_space.ml: the paper's values in
   the middle of each list, bracketed by smaller and larger tiles. *)
let default_alus = [ 1; 2; 3; 4; 5; 8 ]
let default_buses = [ 2; 4; 6; 10; 16 ]
let default_windows = [ 1; 2; 3; 4; 6 ]

let default_points () =
  points Alu_count default_alus
  @ points Buses default_buses
  @ points Move_window default_windows

let tile_of ?(base = Arch.paper_tile) point =
  match point.axis with
  | Alu_count -> Arch.with_alu_count point.value base
  | Buses -> Arch.with_buses point.value base
  | Move_window -> Arch.with_move_window point.value base

type row = {
  point : point;
  metrics : Mapping.Metrics.t;
  verified : bool option;
}

exception Sweep_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Sweep_error msg)) fmt

(* A failure is reported with the point it hit. Front-end and
   minimisation failures do not depend on the tile, so they are blamed
   on the first point, as mapping every point from scratch would. *)
let blame point f =
  match f () with
  | v -> v
  | exception Flow.Flow_error msg ->
    errorf "point %s=%d: %s" (axis_name point.axis) point.value msg

let run_staged ?pool ?base ?(verify = false) ?(memory_init = []) staged points
    =
  match points with
  | [] -> []
  | first :: _ ->
    let checkpoint =
      if Flow.Staged.phase staged = Flow.Staged.Built then
        blame first (fun () -> Flow.Staged.advance staged)
      else staged
    in
    Flow.Staged.freeze checkpoint;
    let config = Flow.Staged.config checkpoint in
    let map_point point =
      Obs.span ~cat:"sweep" "point"
        ~args:
          [ ("axis", Obs.Str (axis_name point.axis)); ("value", Obs.Int point.value) ]
      @@ fun () ->
      let tile = tile_of ?base point in
      (match Arch.validate tile with
      | () -> ()
      | exception Invalid_argument msg ->
        errorf "point %s=%d: %s" (axis_name point.axis) point.value msg);
      (* only the tile changes, so the rewind keeps the front end's and
         the minimiser's work *)
      let staged =
        Option.get (Flow.Staged.rewind checkpoint ~config:{ config with Flow.tile })
      in
      let result =
        blame point (fun () -> Flow.Staged.to_result (Flow.Staged.run staged))
      in
      let verified =
        if verify then Some (Flow.verify ~memory_init result) else None
      in
      Obs.incr c_points;
      { point; metrics = result.Flow.metrics; verified }
    in
    Pool.maybe pool map_point points

let run ?pool ?(config = Flow.default_config) ?base ?func ?verify ?memory_init
    ~source points =
  match points with
  | [] -> []
  | first :: _ ->
    let staged =
      blame first (fun () -> Flow.Staged.of_source ~config ?func source)
    in
    run_staged ?pool ?base ?verify ?memory_init staged points
