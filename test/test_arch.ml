(* Unit tests for the architecture description. *)

module Arch = Fpfa_arch.Arch

let test_paper_tile_matches_paper () =
  let t = Arch.paper_tile in
  Alcotest.(check int) "5 PPs" 5 t.Arch.alu_count;
  Alcotest.(check int) "4 banks (Ra-Rd)" 4 t.Arch.banks_per_pp;
  Alcotest.(check int) "4 registers per bank" 4 t.Arch.regs_per_bank;
  Alcotest.(check int) "2 memories" 2 t.Arch.memories_per_pp;
  Alcotest.(check int) "512 entries" 512 t.Arch.memory_size;
  Alcotest.(check int) "window 4 (Fig.5: 4,3,2,1 steps)" 4 t.Arch.move_window;
  Arch.validate t

let test_alu_caps () =
  Alcotest.(check int) "4 inputs" 4 Arch.paper_alu.Arch.max_inputs;
  Alcotest.(check int) "1 multiplier" 1 Arch.paper_alu.Arch.max_multipliers;
  Alcotest.(check int) "unit alu 1 op" 1 Arch.unit_alu.Arch.max_ops

let test_with_updates () =
  let t = Arch.with_alu_count 3 Arch.paper_tile in
  Alcotest.(check int) "alu count" 3 t.Arch.alu_count;
  let t = Arch.with_buses 7 t in
  Alcotest.(check int) "buses" 7 t.Arch.buses;
  let t = Arch.with_move_window 2 t in
  Alcotest.(check int) "window" 2 t.Arch.move_window;
  let t = Arch.with_alu Arch.unit_alu t in
  Alcotest.(check int) "alu swapped" 1 t.Arch.alu.Arch.max_ops;
  Arch.validate t

let test_validation_rejects () =
  let expect tile =
    match Arch.validate tile with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid tile accepted"
  in
  expect (Arch.with_alu_count 0 Arch.paper_tile);
  expect (Arch.with_buses (-1) Arch.paper_tile);
  expect { Arch.paper_tile with Arch.memory_size = 0 };
  expect
    {
      Arch.paper_tile with
      Arch.alu = { Arch.paper_alu with Arch.max_inputs = 9 };
    }

(* The configuration image holds a count in one byte and a word address
   in two: the widest tile it can describe is valid, one past it is not. *)
let test_validation_bounds () =
  let rejects what tile =
    match Arch.validate tile with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" what
  in
  Arch.validate (Arch.with_buses 255 Arch.paper_tile);
  Arch.validate { Arch.paper_tile with Arch.memory_size = 65_536 };
  rejects "256 buses" (Arch.with_buses 256 Arch.paper_tile);
  rejects "256 ALUs" (Arch.with_alu_count 256 Arch.paper_tile);
  rejects "a 256-cycle window" (Arch.with_move_window 256 Arch.paper_tile);
  rejects "65,537 words" { Arch.paper_tile with Arch.memory_size = 65_537 }

let suite =
  [
    Alcotest.test_case "paper tile" `Quick test_paper_tile_matches_paper;
    Alcotest.test_case "alu caps" `Quick test_alu_caps;
    Alcotest.test_case "with_*" `Quick test_with_updates;
    Alcotest.test_case "validation" `Quick test_validation_rejects;
    Alcotest.test_case "validation bounds" `Quick test_validation_bounds;
  ]
