type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))) fmt

(* ------------------------------------------------------------------ *)
(* Parser: strict recursive descent over a string with one cursor.     *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | Some got -> fail c.pos "expected %C, found %C" ch got
  | None -> fail c.pos "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal"

(* \uXXXX escapes decode to UTF-8 bytes (surrogate pairs combined). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 c =
  if c.pos + 4 > String.length c.src then fail c.pos "truncated \\u escape";
  let v = ref 0 in
  for i = c.pos to c.pos + 3 do
    let d =
      match c.src.[i] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | ch -> fail i "bad hex digit %C" ch
    in
    v := (!v * 16) + d
  done;
  c.pos <- c.pos + 4;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
      c.pos <- c.pos + 1;
      match peek c with
      | None -> fail c.pos "unterminated escape"
      | Some ch ->
        c.pos <- c.pos + 1;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let code = hex4 c in
          let code =
            (* high surrogate: a low surrogate must follow *)
            if code >= 0xD800 && code <= 0xDBFF then begin
              if
                c.pos + 2 <= String.length c.src
                && c.src.[c.pos] = '\\'
                && c.src.[c.pos + 1] = 'u'
              then begin
                c.pos <- c.pos + 2;
                let low = hex4 c in
                if low < 0xDC00 || low > 0xDFFF then
                  fail c.pos "unpaired surrogate";
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              end
              else fail c.pos "unpaired surrogate"
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              fail c.pos "unpaired surrogate"
            else code
          in
          add_utf8 buf code
        | ch -> fail (c.pos - 1) "bad escape \\%C" ch);
        go ())
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control character in string"
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  let digits () =
    let n0 = c.pos in
    while
      match peek c with Some ('0' .. '9') -> true | _ -> false
    do
      c.pos <- c.pos + 1
    done;
    if c.pos = n0 then fail c.pos "expected digit"
  in
  (* JSON forbids leading zeros: 0 alone is fine, 01 is not. *)
  let int_start = c.pos in
  digits ();
  if c.pos - int_start > 1 && c.src.[int_start] = '0' then
    fail int_start "leading zero";
  if peek c = Some '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    is_float := true;
    c.pos <- c.pos + 1;
    (match peek c with
    | Some ('+' | '-') -> c.pos <- c.pos + 1
    | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec field () =
        skip_ws c;
        let name = parse_string c in
        if List.mem_assoc name !fields then fail c.pos "duplicate field %S" name;
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (name, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          field ()
        | Some '}' -> c.pos <- c.pos + 1
        | _ -> fail c.pos "expected ',' or '}'"
      in
      field ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec item () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          item ()
        | Some ']' -> c.pos <- c.pos + 1
        | _ -> fail c.pos "expected ',' or ']'"
      in
      item ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos "unexpected %C" ch

let parse src =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then fail c.pos "trailing input";
  v

(* ------------------------------------------------------------------ *)
(* Emitter: compact, field order = list order, one float format.       *)
(* ------------------------------------------------------------------ *)

(* True when no byte of [s] needs an escape: the common case of keys
   and names, copied in one blit. *)
let plain s =
  let rec go i =
    i >= String.length s
    || match s.[i] with
       | '"' | '\\' -> false
       | ch -> Char.code ch >= 0x20 && go (i + 1)
  in
  go 0

let escape_into buf s =
  Buffer.add_char buf '"';
  if plain s then Buffer.add_string buf s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
        | ch -> Buffer.add_char buf ch)
      s;
  Buffer.add_char buf '"'

(* The C primitive behind [Printf]'s float conversions: the same bytes,
   without interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      let s = format_float "%.6g" f in
      Buffer.add_string buf s;
      (* "%.6g" can print a bare integer ("3"), which would re-parse as
         Int and break value round-trips *)
      if String.for_all (fun ch -> ch = '-' || (ch >= '0' && ch <= '9')) s
      then Buffer.add_string buf ".0"
    end
    else Buffer.add_string buf "null"
  | Str s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf name;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let rec sort_fields = function
  | Obj fields ->
    Obj
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (name, v) -> (name, sort_fields v)) fields))
  | List items -> List (List.map sort_fields items)
  | v -> v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List items -> Some items | _ -> None
