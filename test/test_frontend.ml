let test name f = Alcotest.test_case name `Quick f

let compile_ok src = Helpers.check_ok "compile" (Dfg.Frontend.compile src)

let straight_line () =
  let g = compile_ok "input x, y;\ns = x + y;\np = s * x;\n" in
  Alcotest.(check int) "two nodes" 2 (Dfg.Graph.num_nodes g);
  Alcotest.(check (list string)) "inputs" [ "x"; "y" ] (Dfg.Graph.inputs g);
  let p = Option.get (Dfg.Graph.find g "p") in
  Alcotest.(check (list string)) "p args" [ "s"; "x" ] p.Dfg.Graph.args

let precedence () =
  let g = compile_ok "input a, b, c;\nr = a + b * c;\n" in
  (* b*c binds tighter: r = add a (mul b c). *)
  let r = Option.get (Dfg.Graph.find g "r") in
  Alcotest.(check bool) "r is add" true (r.Dfg.Graph.kind = Dfg.Op.Add);
  let tmp = List.nth r.Dfg.Graph.args 1 in
  let t = Option.get (Dfg.Graph.find g tmp) in
  Alcotest.(check bool) "temp is mul" true (t.Dfg.Graph.kind = Dfg.Op.Mul)

let parentheses () =
  let g = compile_ok "input a, b, c;\nr = (a + b) * c;\n" in
  let r = Option.get (Dfg.Graph.find g "r") in
  Alcotest.(check bool) "r is mul" true (r.Dfg.Graph.kind = Dfg.Op.Mul)

let left_associativity () =
  let g = compile_ok "input a, b, c;\nr = a - b - c;\n" in
  (* (a-b)-c, not a-(b-c). *)
  let env = [ ("a", 10); ("b", 3); ("c", 2) ] in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  Alcotest.(check (option int)) "r = 5" (Some 5) (Sim.Eval.value v "r")

let unary_ops () =
  let g = compile_ok "input a;\nn = -a;\nm = ~a;\n" in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g [ ("a", 5) ]) in
  Alcotest.(check (option int)) "neg" (Some (-5)) (Sim.Eval.value v "n");
  Alcotest.(check (option int)) "not" (Some (-6)) (Sim.Eval.value v "m")

let constants () =
  let g = compile_ok "input x;\ny = 3 * x + 1;\n" in
  Alcotest.(check bool) "c3 input exists" true (List.mem "c3" (Dfg.Graph.inputs g));
  let env = Dfg.Frontend.const_env g in
  Alcotest.(check (option int)) "c3 binding" (Some 3) (List.assoc_opt "c3" env);
  Alcotest.(check (option int)) "c1 binding" (Some 1) (List.assoc_opt "c1" env);
  let v = Helpers.check_ok "eval" (Sim.Eval.run g (("x", 4) :: env)) in
  Alcotest.(check (option int)) "y = 13" (Some 13) (Sim.Eval.value v "y")

let comparisons_and_shifts () =
  let g = compile_ok "input a, b;\nlt = a < b;\nsh = a << 2;\neq = a == b;\n" in
  let env = ("a", 3) :: ("b", 7) :: Dfg.Frontend.const_env g in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  Alcotest.(check (option int)) "lt" (Some 1) (Sim.Eval.value v "lt");
  Alcotest.(check (option int)) "sh" (Some 12) (Sim.Eval.value v "sh");
  Alcotest.(check (option int)) "eq" (Some 0) (Sim.Eval.value v "eq")

let conditionals () =
  let src =
    "input a, b;\n\
     c = a < b;\n\
     if (c) { z = a + b; } else { z = a - b; }\n"
  in
  let g = compile_ok src in
  let z = Option.get (Dfg.Graph.find g "z") in
  let z_else = Option.get (Dfg.Graph.find g "z_else") in
  Alcotest.(check (list (pair string bool))) "then guard" [ ("c", true) ]
    z.Dfg.Graph.guards;
  Alcotest.(check (list (pair string bool))) "else guard" [ ("c", false) ]
    z_else.Dfg.Graph.guards;
  Alcotest.(check bool) "mutually exclusive" true
    (Dfg.Graph.mutually_exclusive g z.Dfg.Graph.id z_else.Dfg.Graph.id)

let nested_conditionals () =
  let src =
    "input a, b;\n\
     c1 = a < b;\n\
     c2 = a > 0;\n\
     if (c1) { if (c2) { w = a + b; } }\n"
  in
  let g = compile_ok src in
  let w = Option.get (Dfg.Graph.find g "w") in
  Alcotest.(check int) "two guards" 2 (List.length w.Dfg.Graph.guards)

let mov_assignment () =
  let g = compile_ok "input a;\nb = a;\n" in
  let b = Option.get (Dfg.Graph.find g "b") in
  Alcotest.(check bool) "materialised as mov" true (b.Dfg.Graph.kind = Dfg.Op.Mov)

let comments_and_whitespace () =
  let g =
    compile_ok
      "# leading comment\ninput a;  // trailing comment\n\n  r = a + a ; # done\n"
  in
  Alcotest.(check int) "one node" 1 (Dfg.Graph.num_nodes g)

let err ?line sub src =
  let d = Helpers.check_err src (Dfg.Frontend.compile src) in
  let msg = Diag.message d in
  Alcotest.(check bool)
    (Printf.sprintf "%S in %S" sub msg)
    true (Helpers.contains ~sub msg);
  match line with
  | None -> ()
  | Some l -> (
      match d.Diag.span with
      | None -> Alcotest.failf "no span on %S" msg
      | Some span -> Alcotest.(check int) "span line" l span.Diag.line)

let errors () =
  err ~line:1 "unexpected character" "r = $;\n";
  err "not defined" "input a;\nr = a + zz;\n";
  err "assigned twice" "input a;\nr = a;\nr = a;\n";
  err "expected" "input a\nr = a;\n";
  err ~line:2 "expected" "input a;\nr = a +;\n";
  err "inputs cannot" "input a;\nc = a < a;\nif (c) { input b; }\n"

let diffeq_in_language () =
  (* The HAL behaviour written as behaviour, then synthesised end to end. *)
  let src =
    "input x, y, u, dx, a;\n\
     x1 = x + dx;\n\
     u1 = u - 3 * x * u * dx - 3 * y * dx;\n\
     y1 = y + u * dx;\n\
     c  = x1 < a;\n"
  in
  let g = compile_ok src in
  Alcotest.(check bool) "has multiplications" true
    (List.assoc_opt "*" (Dfg.Graph.count_by_class g) <> None);
  let lib = Celllib.Ncr.for_graph g in
  let cs = Dfg.Bounds.critical_path g + 1 in
  let o = Helpers.check_ok "mfsa" (Core.Mfsa.run ~library:lib ~cs g) in
  Helpers.check_schedule o.Core.Mfsa.schedule;
  let delay _ = 1 in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay
  in
  let env =
    [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 10) ]
    @ Dfg.Frontend.const_env g
  in
  match Sim.Equiv.check o.Core.Mfsa.datapath ctrl ~env with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let compiled_matches_classic () =
  (* The front-end diffeq computes the same values as the hand-built one. *)
  let src =
    "input x, y, u, dx, a;\n\
     u1 = u - 3 * x * u * dx - 3 * y * dx;\n"
  in
  let g = compile_ok src in
  let env =
    [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 10) ]
    @ Dfg.Frontend.const_env g
  in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  (* From test_sim: u1 = 3 - 18 - 15 = -30. *)
  Alcotest.(check (option int)) "u1" (Some (-30)) (Sim.Eval.value v "u1")

let suite =
  [
    test "straight-line compilation" straight_line;
    test "operator precedence" precedence;
    test "parentheses" parentheses;
    test "left associativity" left_associativity;
    test "unary operators" unary_ops;
    test "integer constants become inputs" constants;
    test "comparisons and shifts" comparisons_and_shifts;
    test "if/else guards" conditionals;
    test "nested conditionals accumulate guards" nested_conditionals;
    test "plain copy becomes mov" mov_assignment;
    test "comments and whitespace" comments_and_whitespace;
    test "error reporting" errors;
    test "diffeq written as behaviour synthesises" diffeq_in_language;
    test "front-end semantics match hand evaluation" compiled_matches_classic;
  ]
