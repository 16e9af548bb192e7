type state = {
  scalars : (string * int) list;
  arrays : (string * int array) list;
  return_value : int option;
}

exception Runtime_error of string

let errorf fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

type store = {
  scalar_tbl : (string, int) Hashtbl.t;
  array_tbl : (string, int array) Hashtbl.t;
  declared_sizes : (string, int) Hashtbl.t;
  mutable fuel : int;
}

exception Returned of int option

let burn store =
  store.fuel <- store.fuel - 1;
  if store.fuel < 0 then errorf "out of fuel (non-terminating loop?)"

let read_scalar store name =
  match Hashtbl.find_opt store.scalar_tbl name with Some v -> v | None -> 0

let grow_array store name needed =
  let current =
    match Hashtbl.find_opt store.array_tbl name with
    | Some arr -> arr
    | None -> [||]
  in
  if Array.length current > needed then current
  else begin
    let bigger = Array.make (needed + 1) 0 in
    Array.blit current 0 bigger 0 (Array.length current);
    Hashtbl.replace store.array_tbl name bigger;
    bigger
  end

let check_bounds store name idx =
  if idx < 0 then errorf "negative index %d into array %s" idx name;
  match Hashtbl.find_opt store.declared_sizes name with
  | Some size when idx >= size ->
    errorf "index %d out of bounds for array %s[%d]" idx name size
  | Some _ | None -> ()

let read_array store name idx =
  check_bounds store name idx;
  match Hashtbl.find_opt store.array_tbl name with
  | Some arr when idx < Array.length arr -> arr.(idx)
  | Some _ | None -> 0

let write_array store name idx value =
  check_bounds store name idx;
  let arr = grow_array store name idx in
  arr.(idx) <- value

let rec eval store expr =
  match expr with
  | Ast.Int_lit n -> n
  | Ast.Var name -> read_scalar store name
  | Ast.Index (name, idx) -> read_array store name (eval store idx)
  | Ast.Binop (op, a, b) -> (
    (* && and || short-circuit as in C. *)
    match op with
    | Ast.Land -> if eval store a = 0 then 0 else if eval store b = 0 then 0 else 1
    | Ast.Lor -> if eval store a <> 0 then 1 else if eval store b <> 0 then 1 else 0
    | _ -> (
      let a = eval store a and b = eval store b in
      match Unroll.eval_const_expr
              (fun _ -> None)
              (Ast.Binop (op, Ast.Int_lit a, Ast.Int_lit b))
      with
      | Some v -> v
      | None -> errorf "runtime fault in %d %s %d" a (Ast.pp_binop op) b))
  | Ast.Unop (op, a) -> (
    let a = eval store a in
    match op with
    | Ast.Neg -> -a
    | Ast.Bnot -> lnot a
    | Ast.Lnot -> if a = 0 then 1 else 0)
  | Ast.Cond (c, a, b) -> if eval store c <> 0 then eval store a else eval store b
  | Ast.Call ("abs", [ a ]) -> abs (eval store a)
  | Ast.Call ("min", [ a; b ]) -> min (eval store a) (eval store b)
  | Ast.Call ("max", [ a; b ]) -> max (eval store a) (eval store b)
  | Ast.Call (name, _) -> errorf "call to unknown intrinsic %s" name

let rec exec store stmt =
  burn store;
  match stmt with
  | Ast.Decl (name, None, init) ->
    let v = match init with Some e -> eval store e | None -> 0 in
    Hashtbl.replace store.scalar_tbl name v
  | Ast.Decl (name, Some size, _) ->
    Hashtbl.replace store.declared_sizes name size;
    if not (Hashtbl.mem store.array_tbl name) then
      Hashtbl.replace store.array_tbl name (Array.make size 0)
  | Ast.Assign (Ast.Lvar name, e) ->
    Hashtbl.replace store.scalar_tbl name (eval store e)
  | Ast.Assign (Ast.Lindex (name, idx), e) ->
    let idx = eval store idx in
    let v = eval store e in
    write_array store name idx v
  | Ast.If (cond, then_body, else_body) ->
    exec_body store (if eval store cond <> 0 then then_body else else_body)
  | Ast.While (cond, body) ->
    while eval store cond <> 0 do
      burn store;
      exec_body store body
    done
  | Ast.Return value -> raise (Returned (Option.map (eval store) value))
  | Ast.Expr e -> ignore (eval store e)

and exec_body store body = List.iter (exec store) body

let snapshot store return_value =
  let scalars =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) store.scalar_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let arrays =
    Hashtbl.fold (fun k v acc -> (k, Array.copy v) :: acc) store.array_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { scalars; arrays; return_value }

let run ?(fuel = 1_000_000) ?(args = []) ?(scalar_init = [])
    ?(array_init = []) (f : Ast.func) =
  ignore (Sema.check_func f);
  let store =
    {
      scalar_tbl = Hashtbl.create 16;
      array_tbl = Hashtbl.create 16;
      declared_sizes = Hashtbl.create 16;
      fuel;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace store.scalar_tbl name v) scalar_init;
  List.iter
    (fun (name, arr) -> Hashtbl.replace store.array_tbl name (Array.copy arr))
    array_init;
  (match
     List.length args <= List.length f.Ast.params
   with
  | true -> ()
  | false -> errorf "too many arguments for %s" f.Ast.name);
  List.iteri
    (fun i p ->
      let v = match List.nth_opt args i with Some v -> v | None -> 0 in
      Hashtbl.replace store.scalar_tbl p v)
    f.Ast.params;
  match exec_body store f.Ast.body with
  | () -> snapshot store None
  | exception Returned value -> snapshot store value

let run_main ?fuel ?array_init ?scalar_init program =
  let main = List.find (fun (f : Ast.func) -> f.Ast.name = "main") program in
  run ?fuel ?array_init ?scalar_init main

(* The tile holds a scalar input as a one-cell region; the interpreter
   reads scalars only from [scalar_init], so split the inputs by the kinds
   [main] gives them. *)
let run_main_on_regions ?fuel inputs program =
  let scalar_names =
    match List.find_opt (fun (f : Ast.func) -> f.Ast.name = "main") program with
    | Some main ->
      List.map (fun (s : Sema.symbol) -> s.Sema.name) (Sema.scalars (Sema.check_func main))
    | None -> []
  in
  let scalars, arrays =
    List.partition (fun (name, _) -> List.mem name scalar_names) inputs
  in
  let scalar_init =
    List.map
      (fun (name, cells) -> (name, if Array.length cells = 0 then 0 else cells.(0)))
      scalars
  in
  run_main ?fuel ~scalar_init ~array_init:arrays program

let equal_state a b =
  a.scalars = b.scalars
  && a.return_value = b.return_value
  && List.length a.arrays = List.length b.arrays
  && List.for_all2
       (fun (n1, arr1) (n2, arr2) -> String.equal n1 n2 && arr1 = arr2)
       a.arrays b.arrays

let pp_state fmt { scalars; arrays; return_value } =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf fmt "%s = %d@," name v) scalars;
  List.iter
    (fun (name, arr) ->
      Format.fprintf fmt "%s = [%s]@," name
        (String.concat "; " (Array.to_list (Array.map string_of_int arr))))
    arrays;
  (match return_value with
  | Some v -> Format.fprintf fmt "return %d@," v
  | None -> ());
  Format.fprintf fmt "@]"
