(* Fpfa_util.Json: strict parsing, deterministic emission, canonical
   field sorting — the serve protocol's wire format. *)

module Json = Fpfa_util.Json

let parses text = Json.parse text

let rejects text =
  match Json.parse text with
  | _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
  | exception Json.Parse_error _ -> ()

let test_parse_scalars () =
  Alcotest.(check bool) "null" true (parses "null" = Json.Null);
  Alcotest.(check bool) "true" true (parses "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parses "false" = Json.Bool false);
  Alcotest.(check bool) "int" true (parses "42" = Json.Int 42);
  Alcotest.(check bool) "negative" true (parses "-7" = Json.Int (-7));
  Alcotest.(check bool) "float" true (parses "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent" true (parses "2e3" = Json.Float 2000.0);
  Alcotest.(check bool) "string" true (parses "\"hi\"" = Json.Str "hi")

let test_parse_structures () =
  Alcotest.(check bool)
    "array" true
    (parses "[1, 2, 3]" = Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
  Alcotest.(check bool)
    "object keeps order" true
    (parses "{\"b\": 1, \"a\": 2}"
    = Json.Obj [ ("b", Json.Int 1); ("a", Json.Int 2) ]);
  Alcotest.(check bool)
    "nested" true
    (parses "{\"x\": [true, null]}"
    = Json.Obj [ ("x", Json.List [ Json.Bool true; Json.Null ]) ])

let test_parse_escapes () =
  Alcotest.(check bool)
    "simple escapes" true
    (parses "\"a\\\"b\\\\c\\nd\"" = Json.Str "a\"b\\c\nd");
  Alcotest.(check bool)
    "unicode escape" true
    (parses "\"\\u0041\"" = Json.Str "A");
  (* U+00E9 -> two UTF-8 bytes *)
  Alcotest.(check bool)
    "two-byte escape" true
    (parses "\"\\u00e9\"" = Json.Str "\xc3\xa9");
  (* surrogate pair: U+1F600 *)
  Alcotest.(check bool)
    "surrogate pair" true
    (parses "\"\\ud83d\\ude00\"" = Json.Str "\xf0\x9f\x98\x80")

let test_parse_rejects () =
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\": 1,}";
  rejects "{\"a\" 1}";
  rejects "nul";
  rejects "01";
  rejects "1 2";
  rejects "\"unterminated";
  rejects "{\"a\": 1, \"a\": 2}" (* duplicate field *)

let test_emit_deterministic () =
  let v =
    Json.Obj
      [
        ("b", Json.Int 1);
        ("a", Json.List [ Json.Null; Json.Bool false ]);
        ("s", Json.Str "x\"y");
      ]
  in
  Alcotest.(check string)
    "fields in list order" "{\"b\":1,\"a\":[null,false],\"s\":\"x\\\"y\"}"
    (Json.to_string v);
  Alcotest.(check string)
    "stable across calls" (Json.to_string v) (Json.to_string v);
  Alcotest.(check string) "control characters" "\"a\\u0001\\nb\\\\\""
    (Json.to_string (Json.Str "a\001\nb\\"))

let test_emit_floats () =
  Alcotest.(check string) "fractional" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "six digits" "0.155556"
    (Json.to_string (Json.Float 0.1555555));
  Alcotest.(check string) "exponent" "-1e-07"
    (Json.to_string (Json.Float (-1e-7)));
  Alcotest.(check string) "integral" "102.0" (Json.to_string (Json.Float 102.0));
  (* integral floats keep a marker so they re-parse as Float *)
  (match Json.parse (Json.to_string (Json.Float 2.0)) with
  | Json.Float f -> Alcotest.(check (float 0.0)) "value" 2.0 f
  | _ -> Alcotest.fail "integral float did not round-trip as Float");
  Alcotest.(check string)
    "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_roundtrip () =
  let v =
    Json.Obj
      [
        ("op", Json.Str "compile");
        ("values", Json.List [ Json.Int 2; Json.Int 4; Json.Int 8 ]);
        ("nested", Json.Obj [ ("ok", Json.Bool true); ("x", Json.Null) ]);
        ("msg", Json.Str "line\nbreak\tand \"quote\"");
      ]
  in
  Alcotest.(check bool)
    "parse (to_string v) = v" true
    (Json.parse (Json.to_string v) = v)

let test_sort_fields () =
  let v =
    Json.Obj
      [
        ("b", Json.Obj [ ("z", Json.Int 1); ("a", Json.Int 2) ]);
        ("a", Json.List [ Json.Obj [ ("y", Json.Null); ("x", Json.Null) ] ]);
      ]
  in
  Alcotest.(check string)
    "recursively sorted"
    "{\"a\":[{\"x\":null,\"y\":null}],\"b\":{\"a\":2,\"z\":1}}"
    (Json.to_string (Json.sort_fields v));
  (* two spellings of the same request canonicalise identically *)
  let a = Json.parse "{\"op\": \"compile\", \"kernel\": \"fir\"}" in
  let b = Json.parse "{\"kernel\": \"fir\", \"op\": \"compile\"}" in
  Alcotest.(check string)
    "field order canonicalised"
    (Json.to_string (Json.sort_fields a))
    (Json.to_string (Json.sort_fields b))

let test_accessors () =
  let v = Json.parse "{\"n\": 3, \"s\": \"x\", \"b\": true, \"l\": [1]}" in
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (Json.member "n" v) Json.to_int);
  Alcotest.(check (option string))
    "member str" (Some "x")
    (Option.bind (Json.member "s" v) Json.to_string_opt);
  Alcotest.(check (option bool))
    "member bool" (Some true)
    (Option.bind (Json.member "b" v) Json.to_bool);
  Alcotest.(check bool)
    "member list" true
    (Option.bind (Json.member "l" v) Json.to_list = Some [ Json.Int 1 ]);
  Alcotest.(check bool) "missing" true (Json.member "zz" v = None);
  Alcotest.(check bool) "non-object" true (Json.member "x" (Json.Int 1) = None)

(* Property: emit/parse round-trips on random values. *)
let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 4) @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Fpfa_util.Json.Null;
              map (fun b -> Fpfa_util.Json.Bool b) bool;
              map (fun i -> Fpfa_util.Json.Int i) (int_range (-1000) 1000);
              map
                (fun s -> Fpfa_util.Json.Str s)
                (string_size ~gen:printable (int_range 0 8));
            ]
        in
        if n = 0 then scalar
        else
          oneof
            [
              scalar;
              map (fun l -> Fpfa_util.Json.List l)
                (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun kvs ->
                  (* de-duplicate keys: the parser rejects duplicates *)
                  let seen = Hashtbl.create 8 in
                  Fpfa_util.Json.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else (Hashtbl.add seen k (); true))
                       kvs))
                (list_size (int_range 0 4)
                   (pair
                      (string_size ~gen:printable (int_range 1 6))
                      (self (n - 1))));
            ]))

let roundtrip_random =
  QCheck.Test.make ~name:"emit/parse round-trip on random values" ~count:200
    (QCheck.make gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

let suite =
  [
    Alcotest.test_case "parse scalars" `Quick test_parse_scalars;
    Alcotest.test_case "parse structures" `Quick test_parse_structures;
    Alcotest.test_case "parse escapes" `Quick test_parse_escapes;
    Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
    Alcotest.test_case "emit deterministic" `Quick test_emit_deterministic;
    Alcotest.test_case "emit floats" `Quick test_emit_floats;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "sort fields" `Quick test_sort_fields;
    Alcotest.test_case "accessors" `Quick test_accessors;
    QCheck_alcotest.to_alcotest roundtrip_random;
  ]
