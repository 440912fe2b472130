let test name f = Alcotest.test_case name `Quick f

(* Parent body: pre-processing, a loop placeholder, post-processing. *)
let parent_body () =
  Helpers.graph_exn ~inputs:[ "a"; "b" ]
    [
      Helpers.op "pre" Dfg.Op.Add [ "a"; "b" ];
      Helpers.op "inner" Dfg.Op.Mov [ "pre" ];
      Helpers.op "post" Dfg.Op.Sub [ "inner"; "b" ];
    ]

let inner_body () =
  Helpers.graph_exn ~inputs:[ "p"; "q" ]
    [
      Helpers.op "w1" Dfg.Op.Mul [ "p"; "q" ];
      Helpers.op "w2" Dfg.Op.Add [ "w1"; "q" ];
    ]

let expand_basics () =
  let g = parent_body () in
  let expanded =
    Helpers.check_ok "expand"
      (Core.Loops.expand_placeholder g ~name:"inner" ~cycles:3)
  in
  Alcotest.(check int) "two extra nodes" (Dfg.Graph.num_nodes g + 2)
    (Dfg.Graph.num_nodes expanded);
  (* Consumers still read "inner"; the chain feeds it. *)
  let post = Option.get (Dfg.Graph.find expanded "post") in
  Alcotest.(check bool) "post reads inner" true
    (List.mem "inner" post.Dfg.Graph.args);
  Alcotest.(check bool) "chain link 1 exists" true
    (Dfg.Graph.find expanded "inner__1" <> None);
  (* The expansion adds 2 steps to the critical path. *)
  Alcotest.(check int) "critical path stretched"
    (Dfg.Bounds.critical_path g + 2)
    (Dfg.Bounds.critical_path expanded)

let expand_single_cycle_is_same_depth () =
  let g = parent_body () in
  let expanded =
    Helpers.check_ok "expand"
      (Core.Loops.expand_placeholder g ~name:"inner" ~cycles:1)
  in
  Alcotest.(check int) "same node count" (Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes expanded)

let expand_errors () =
  let g = parent_body () in
  ignore
    (Helpers.check_err "unknown placeholder"
       (Core.Loops.expand_placeholder g ~name:"nope" ~cycles:2));
  ignore
    (Helpers.check_err "bad budget"
       (Core.Loops.expand_placeholder g ~name:"inner" ~cycles:0))

let nested_scheduling () =
  let tree =
    {
      Core.Loops.body = parent_body ();
      budget = 6;
      children =
        [ ("inner", { Core.Loops.body = inner_body (); budget = 2; children = [] }) ];
    }
  in
  let s = Helpers.check_ok "nested" (Core.Loops.schedule_nested tree) in
  Helpers.check_schedule s.Core.Loops.loop_schedule;
  Alcotest.(check int) "outer steps" 6 (Core.Loops.total_steps s);
  let inner = List.assoc "inner" s.Core.Loops.loop_children in
  Helpers.check_schedule inner.Core.Loops.loop_schedule;
  Alcotest.(check int) "inner budget" 2
    inner.Core.Loops.loop_schedule.Core.Schedule.cs

let nested_two_levels () =
  let leaf = { Core.Loops.body = inner_body (); budget = 2; children = [] } in
  let mid_body =
    Helpers.graph_exn ~inputs:[ "m" ]
      [
        Helpers.op "leafer" Dfg.Op.Mov [ "m" ];
        Helpers.op "madd" Dfg.Op.Add [ "leafer"; "m" ];
      ]
  in
  let mid =
    { Core.Loops.body = mid_body; budget = 4; children = [ ("leafer", leaf) ] }
  in
  let top =
    {
      Core.Loops.body = parent_body ();
      budget = 8;
      children = [ ("inner", mid) ];
    }
  in
  let s = Helpers.check_ok "two levels" (Core.Loops.schedule_nested top) in
  Alcotest.(check int) "top horizon" 8 (Core.Loops.total_steps s);
  let mid_s = List.assoc "inner" s.Core.Loops.loop_children in
  Alcotest.(check int) "middle has its child" 1
    (List.length mid_s.Core.Loops.loop_children)

let nested_allocation () =
  let library =
    Celllib.Library.generated [ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul; Dfg.Op.Mov ]
  in
  let tree =
    {
      Core.Loops.body = parent_body ();
      budget = 6;
      children =
        [ ("inner", { Core.Loops.body = inner_body (); budget = 2; children = [] }) ];
    }
  in
  let a =
    Helpers.check_ok "allocate" (Core.Loops.allocate_nested ~library tree)
  in
  Helpers.check_schedule a.Core.Loops.alloc_outcome.Core.Mfsa.schedule;
  let inner = List.assoc "inner" a.Core.Loops.alloc_children in
  Helpers.check_schedule inner.Core.Loops.alloc_outcome.Core.Mfsa.schedule;
  (* Each level owns a datapath; the total cost covers both. *)
  Alcotest.(check bool) "total covers both levels" true
    (Core.Loops.total_cost a
    > a.Core.Loops.alloc_outcome.Core.Mfsa.cost.Rtl.Cost.total);
  (* The inner loop's datapath knows nothing about the parent's ops. *)
  Alcotest.(check bool) "inner datapath is small" true
    (List.length inner.Core.Loops.alloc_outcome.Core.Mfsa.datapath.Rtl.Datapath.alus
    <= 2)

let budget_too_small () =
  let tree =
    {
      Core.Loops.body = parent_body ();
      budget = 3;
      children =
        [ ("inner", { Core.Loops.body = inner_body (); budget = 4; children = [] }) ];
    }
  in
  (* Inner chain of 4 plus pre/post needs 6 > 3: the error names the path. *)
  let msg = Helpers.check_err "tight parent" (Core.Loops.schedule_nested tree) in
  Alcotest.(check bool) "path in message" true (Helpers.contains ~sub:"top" (Diag.message msg))

let iteration_control () =
  let g = inner_body () in
  let g' =
    Helpers.check_ok "control"
      (Core.Loops.add_iteration_control g ~counter:"i" ~bound:"n")
  in
  Alcotest.(check int) "two ops added" (Dfg.Graph.num_nodes g + 2)
    (Dfg.Graph.num_nodes g');
  let inc = Option.get (Dfg.Graph.find g' "i__next") in
  Alcotest.(check bool) "increment is an add" true
    (inc.Dfg.Graph.kind = Dfg.Op.Add);
  let test_op = Option.get (Dfg.Graph.find g' "i__continue") in
  Alcotest.(check bool) "test is a comparison" true
    (test_op.Dfg.Graph.kind = Dfg.Op.Lt);
  (* The controlled body schedules against a local budget like any DFG. *)
  let o = Helpers.mfs_time g' (Dfg.Bounds.critical_path g') in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* Semantics: i=3, n=10 -> continue. *)
  let env = [ ("p", 2); ("q", 3); ("i", 3); ("n", 10); ("c1", 1) ] in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g' env) in
  Alcotest.(check (option int)) "i+1" (Some 4) (Sim.Eval.value v "i__next");
  Alcotest.(check (option int)) "continue" (Some 1)
    (Sim.Eval.value v "i__continue")

let iteration_control_clash () =
  let g = inner_body () in
  ignore
    (Helpers.check_err "counter clashes with node"
       (Core.Loops.add_iteration_control g ~counter:"w1" ~bound:"n"))

let suite =
  [
    test "placeholder expansion" expand_basics;
    test "iteration-control ops (5.2)" iteration_control;
    test "iteration-control name clash" iteration_control_clash;
    test "single-cycle expansion is identity-sized" expand_single_cycle_is_same_depth;
    test "expansion errors" expand_errors;
    test "nested scheduling" nested_scheduling;
    test "two levels of nesting" nested_two_levels;
    test "nested allocation (5.2)" nested_allocation;
    test "parent budget too small" budget_too_small;
  ]
