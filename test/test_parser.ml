let test name f = Alcotest.test_case name `Quick f

let parse_minimal () =
  let g =
    Helpers.check_ok "parse"
      (Dfg.Parser.parse "input a b\nn1 = add a b\nn2 = mul n1 a\n")
  in
  Alcotest.(check int) "two nodes" 2 (Dfg.Graph.num_nodes g)

let parse_symbols_and_comments () =
  let src = "# a comment\ninput a b   # trailing\nn1 = + a b\nn2 = * n1 a\n" in
  let g = Helpers.check_ok "parse" (Dfg.Parser.parse src) in
  Alcotest.(check string) "n1 kind" "add"
    (Dfg.Op.to_string (Option.get (Dfg.Graph.find g "n1")).Dfg.Graph.kind)

let parse_guards () =
  let src = "input a b\nc = lt a b\nt = add a b @ c\nu = sub a b @ !c\n" in
  let g = Helpers.check_ok "parse" (Dfg.Parser.parse src) in
  let t = Option.get (Dfg.Graph.find g "t") in
  let u = Option.get (Dfg.Graph.find g "u") in
  Alcotest.(check (list (pair string bool))) "t guard" [ ("c", true) ]
    t.Dfg.Graph.guards;
  Alcotest.(check (list (pair string bool))) "u guard" [ ("c", false) ]
    u.Dfg.Graph.guards

let parse_blank_lines () =
  let g =
    Helpers.check_ok "parse" (Dfg.Parser.parse "\n\ninput a\n\nn = neg a\n\n")
  in
  Alcotest.(check int) "one node" 1 (Dfg.Graph.num_nodes g)

let error_has_line_number () =
  let d =
    Helpers.check_err "bad op" (Dfg.Parser.parse "input a\nn = frobnicate a\n")
  in
  let span = Option.get d.Diag.span in
  Alcotest.(check int) "line 2 reported" 2 span.Diag.line;
  Alcotest.(check int) "column points at the op" 5 span.Diag.col;
  Alcotest.(check string) "code" "parse.unknown-op" d.Diag.code

let error_bad_shape () =
  let d = Helpers.check_err "garbage" (Dfg.Parser.parse "hello world\n") in
  let span = Option.get d.Diag.span in
  Alcotest.(check int) "line 1 reported" 1 span.Diag.line

let error_empty_input_decl () =
  ignore (Helpers.check_err "bare input" (Dfg.Parser.parse "input\n"))

let crlf_accepted () =
  (* Regression: CRLF sources used to leave a trailing [\r] on the last
     operand, producing a bogus "unknown operand" error. *)
  let g =
    Helpers.check_ok "crlf"
      (Dfg.Parser.parse "input a b\r\nn1 = add a b\r\nn2 = mul n1 a\r\n")
  in
  Alcotest.(check int) "two nodes" 2 (Dfg.Graph.num_nodes g);
  Alcotest.(check (list string)) "inputs intact" [ "a"; "b" ]
    (Dfg.Graph.inputs g)

let error_semantic () =
  (* Syntax fine, graph invalid: builder error surfaces. *)
  ignore
    (Helpers.check_err "unknown operand" (Dfg.Parser.parse "input a\nn = add a zz\n"))

let missing_file () =
  ignore (Helpers.check_err "ENOENT" (Dfg.Parser.parse_file "/nonexistent/x.dfg"))

let equal_graph a b =
  Dfg.Graph.num_nodes a = Dfg.Graph.num_nodes b
  && Dfg.Graph.inputs a = Dfg.Graph.inputs b
  && List.for_all2
       (fun x y ->
         x.Dfg.Graph.name = y.Dfg.Graph.name
         && x.Dfg.Graph.kind = y.Dfg.Graph.kind
         && x.Dfg.Graph.args = y.Dfg.Graph.args
         && x.Dfg.Graph.guards = y.Dfg.Graph.guards)
       (Dfg.Graph.nodes a) (Dfg.Graph.nodes b)

let roundtrip_classics () =
  List.iter
    (fun (name, g) ->
      let g' =
        Helpers.check_ok (name ^ " reparse")
          (Dfg.Parser.parse (Dfg.Parser.to_source g))
      in
      Alcotest.(check bool) (name ^ " roundtrips") true (equal_graph g g'))
    (Workloads.Classic.all () @ [ ("cond", Workloads.Classic.cond_example ()) ])

let roundtrip_random =
  Helpers.qcheck ~count:60 "to_source/parse roundtrips random DAGs"
    (Helpers.dag_gen ())
    (fun g ->
      match Dfg.Parser.parse (Dfg.Parser.to_source g) with
      | Ok g' -> equal_graph g g'
      | Error _ -> false)

let suite =
  [
    test "minimal program" parse_minimal;
    test "operator symbols and comments" parse_symbols_and_comments;
    test "guards" parse_guards;
    test "blank lines ignored" parse_blank_lines;
    test "unknown op reports its line" error_has_line_number;
    test "unparsable line reported" error_bad_shape;
    test "CRLF line endings accepted" crlf_accepted;
    test "empty input declaration rejected" error_empty_input_decl;
    test "semantic errors surface" error_semantic;
    test "missing file is an Error" missing_file;
    test "classic workloads roundtrip" roundtrip_classics;
    roundtrip_random;
  ]
