(* The frozen request pool of the serve workload (serve_pool.json).

   Traffic must not depend on the code under test, so the pool is made
   once with [--make-pool] and committed: the corpus sources as they were
   then, every single-literal edit of them (values 0-15) that the
   reference interpreter accepts and that the daemon compiled and
   verified, and every one-knob near-miss of a corpus kernel (alus, buses
   or window 1-8, or another flow variant) that compiled. An edit is stored as (kernel,
   literal ordinal, new value) and re-applied by the scanner below. *)

module Json = Fpfa_util.Json
module Kernels = Fpfa_kernels.Kernels
module Serve = Fpfa_serve.Serve

type near = { kernel : string; knob : string; value : Json.t }

type t = {
  kernels : (string * string) array;  (** name, frozen source *)
  literals : (int * int) array array;  (** per kernel: offset, length *)
  edits : (int * int * int) array;  (** kernel, literal ordinal, value *)
  near : near array;
}

let is_digit c = c >= '0' && c <= '9'

let is_ident c =
  is_digit c || c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* Decimal integer literals: maximal digit runs that do not continue an
   identifier. Independent of the front end under test on purpose. *)
let literals src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then Array.of_list (List.rev acc)
    else if is_digit src.[i] && (i = 0 || not (is_ident src.[i - 1])) then begin
      let j = ref i in
      while !j < n && is_digit src.[!j] do incr j done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let splice src (pos, len) value =
  String.sub src 0 pos ^ string_of_int value
  ^ String.sub src (pos + len) (String.length src - pos - len)

let edit_source t (k, lit, value) =
  splice (snd t.kernels.(k)) t.literals.(k).(lit) value

let compile_line fields = Json.to_string (Json.Obj (("op", Json.Str "compile") :: fields))
let kernel_line name = compile_line [ ("kernel", Json.Str name) ]
let near_line n = compile_line [ ("kernel", Json.Str n.kernel); (n.knob, n.value) ]

(* Edits ask the daemon to verify its answer. A verified compile is not
   kept in the mapping cache, so every patch grafts onto a cold-compiled
   corpus kernel: patching from an already patched edit can return bytes
   that differ from a cold compile of the same source (see README.md). *)
let edit_line t e =
  compile_line [ ("source", Json.Str (edit_source t e)); ("verify", Json.Bool true) ]

(* ok, and not refuted by the daemon's own conformance check *)
let good_response resp =
  Json.member "ok" resp = Some (Json.Bool true)
  && Option.bind (Json.member "result" resp) (Json.member "verified") <> Some (Json.Bool false)

let knobs =
  List.concat_map
    (fun knob -> List.init 8 (fun i -> (knob, Json.Int (i + 1))))
    [ "alus"; "buses"; "window" ]
  @ [ ("variant", Json.Str "sarkar"); ("variant", Json.Str "forwarding") ]

let make () =
  let daemon = Serve.create ~cache_size:0 () in
  let compiles line = good_response (Json.parse (Serve.handle_line daemon line)) in
  let corpus = Array.of_list Kernels.all in
  let kernels = Array.map (fun (k : Kernels.t) -> (k.Kernels.name, k.Kernels.source)) corpus in
  let t = { kernels; literals = Array.map (fun (_, s) -> literals s) kernels; edits = [||]; near = [||] } in
  let interp_accepts (k : Kernels.t) src =
    match
      Cfront.Interp.run_main ~array_init:k.Kernels.inputs
        (Cfront.Inline.program (Cfront.Parser.parse_program src))
    with
    | _ -> true
    | exception _ -> false
  in
  let edits =
    List.concat
      (List.init (Array.length corpus) (fun k ->
           let src = snd kernels.(k) in
           List.concat
             (List.init (Array.length t.literals.(k)) (fun lit ->
                  let pos, len = t.literals.(k).(lit) in
                  let original = int_of_string (String.sub src pos len) in
                  List.filter_map
                    (fun value ->
                      let e = (k, lit, value) in
                      if value <> original
                         && interp_accepts corpus.(k) (edit_source t e)
                         && compiles (edit_line t e)
                      then Some e
                      else None)
                    (List.init 16 Fun.id)))))
  in
  let near =
    List.concat_map
      (fun (name, _) ->
        List.filter_map
          (fun (knob, value) ->
            let n = { kernel = name; knob; value } in
            if compiles (near_line n) then Some n else None)
          knobs)
      (Array.to_list kernels)
  in
  Serve.shutdown daemon;
  Json.Obj
    [
      ( "kernels",
        Json.List
          (Array.to_list
             (Array.map
                (fun (name, source) ->
                  Json.Obj [ ("name", Json.Str name); ("source", Json.Str source) ])
                kernels)) );
      ( "edits",
        Json.List
          (List.map
             (fun (k, lit, v) -> Json.List [ Json.Int k; Json.Int lit; Json.Int v ])
             edits) );
      ( "near",
        Json.List
          (List.map
             (fun n -> Json.List [ Json.Str n.kernel; Json.Str n.knob; n.value ])
             near) );
    ]

let of_json text =
  let bad () = failwith "serve_pool.json: unexpected shape" in
  let field name v = match Json.member name v with Some x -> x | None -> bad () in
  let list v = match Json.to_list v with Some l -> Array.of_list l | None -> bad () in
  let str v = match Json.to_string_opt v with Some s -> s | None -> bad () in
  let int v = match Json.to_int v with Some i -> i | None -> bad () in
  let root = Json.parse text in
  let kernels =
    Array.map (fun k -> (str (field "name" k), str (field "source" k))) (list (field "kernels" root))
  in
  let edits =
    Array.map
      (fun e ->
        match list e with [| k; lit; v |] -> (int k, int lit, int v) | _ -> bad ())
      (list (field "edits" root))
  in
  let near =
    Array.map
      (fun n ->
        match list n with
        | [| kernel; knob; value |] -> { kernel = str kernel; knob = str knob; value }
        | _ -> bad ())
      (list (field "near" root))
  in
  { kernels; literals = Array.map (fun (_, s) -> literals s) kernels; edits; near }
