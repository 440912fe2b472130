(* The shipped sample inputs in examples/data/ stay loadable and
   synthesisable. *)

let test name f = Alcotest.test_case name `Quick f

let data = Helpers.example_file

let diffeq_beh () =
  let g = Helpers.check_okd "compile" (Dfg.Frontend.compile_file (data "diffeq.beh")) in
  Alcotest.(check int) "mults" 6
    (Option.value ~default:0 (List.assoc_opt "*" (Dfg.Graph.count_by_class g)));
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_okd "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  Helpers.check_schedule o.Core.Mfsa.schedule

let fir4_dfg () =
  let g = Helpers.check_okd "parse" (Dfg.Parser.parse_file (data "fir4.dfg")) in
  Alcotest.(check int) "ops" 7 (Dfg.Graph.num_nodes g);
  let env =
    List.mapi (fun i v -> (v, i + 1)) (Dfg.Graph.inputs g)
  in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  (* y = 5*1 + 6*2 + 7*3 + 8*4 = 70. *)
  Alcotest.(check (option int)) "y" (Some 70) (Sim.Eval.value v "y")

let cond_beh () =
  let g = Helpers.check_okd "compile" (Dfg.Frontend.compile_file (data "cond.beh")) in
  let consts = Dfg.Frontend.const_env g in
  let run acc x limit =
    let env = [ ("acc", acc); ("x", x); ("limit", limit) ] @ consts in
    let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
    let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
    if Sim.Eval.active g ~values:v (id "next") then
      Option.get (Sim.Eval.value v "next")
    else Option.get (Sim.Eval.value v "next_else")
  in
  Alcotest.(check int) "saturates" 10 (run 8 5 10);
  Alcotest.(check int) "accumulates" 9 (run 8 1 10)

let suite =
  [
    test "diffeq.beh compiles and synthesises" diffeq_beh;
    test "fir4.dfg parses and evaluates" fir4_dfg;
    test "cond.beh guards behave" cond_beh;
  ]
