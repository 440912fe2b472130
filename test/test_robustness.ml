(* Edge cases and failure-injection that do not fit the per-module suites. *)

let test name f = Alcotest.test_case name `Quick f

let resource_mfs_partial_limits () =
  (* Only multipliers limited: other classes are unconstrained and the
     scheduler may provision freely for them. *)
  let g = Workloads.Classic.diffeq () in
  let o =
    Helpers.check_ok "partial limits"
      (Core.Mfs.run g (Core.Mfs.Resource { limits = [ ("*", 2) ] }))
  in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check bool) "mult cap respected" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" <= 2)

let single_op_graph () =
  let g =
    Helpers.graph_exn ~inputs:[ "a" ] [ Helpers.op "n" Dfg.Op.Neg [ "a" ] ]
  in
  let o = Helpers.mfs_time g 1 in
  Alcotest.(check int) "one step" 1 (Core.Schedule.makespan o.Core.Mfs.schedule);
  let lib = Celllib.Ncr.for_graph g in
  let m = Helpers.check_ok "mfsa" (Core.Mfsa.run ~library:lib ~cs:1 g) in
  Alcotest.(check int) "one ALU" 1 m.Core.Mfsa.cost.Rtl.Cost.n_alus;
  Alcotest.(check int) "no muxes" 0 m.Core.Mfsa.cost.Rtl.Cost.n_mux

let wide_independent_graph () =
  (* 12 independent ops: at cs=1 every op needs its own unit. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      (List.init 12 (fun i ->
           Helpers.op (Printf.sprintf "n%d" i) Dfg.Op.Add [ "a"; "b" ]))
  in
  let o = Helpers.mfs_time g 1 in
  Alcotest.(check int) "12 adders" 12 (Helpers.fu_count o.Core.Mfs.schedule "+");
  let o6 = Helpers.mfs_time g 6 in
  Alcotest.(check int) "2 adders at cs=6" 2
    (Helpers.fu_count o6.Core.Mfs.schedule "+")

let huge_budget_one_unit_each () =
  let g = Workloads.Classic.ewf () in
  let o = Helpers.mfs_time g 60 in
  List.iter
    (fun (c, k) -> Alcotest.(check int) (c ^ " single") 1 k)
    (Core.Schedule.fu_counts o.Core.Mfs.schedule)

let deep_nested_frontend () =
  let src =
    "input a, b;\n\
     c1 = a < b;\n\
     c2 = a > b;\n\
     if (c1) { x = a + b; if (c2) { y = x * a; } else { y2 = x * b; } }\n"
  in
  let g = Helpers.check_ok "compile" (Dfg.Frontend.compile src) in
  let y = Option.get (Dfg.Graph.find g "y") in
  Alcotest.(check (list (pair string bool)))
    "nested guards in order"
    [ ("c1", true); ("c2", true) ]
    y.Dfg.Graph.guards;
  let y2 = Option.get (Dfg.Graph.find g "y2_else") in
  Alcotest.(check (list (pair string bool)))
    "else branch arm"
    [ ("c1", true); ("c2", false) ]
    y2.Dfg.Graph.guards

let frontend_cross_branch_rejected () =
  (* The guard-scoping validation reaches the front end: an else branch
     cannot read a then-branch value. *)
  let src =
    "input a, b;\n\
     c = a < b;\n\
     if (c) { x = a + b; } else { z = x - b; }\n"
  in
  let msg =
    Diag.message (Helpers.check_err "cross read" (Dfg.Frontend.compile src))
  in
  Alcotest.(check bool) "scoping reported" true
    (Helpers.contains ~sub:"guard scoping" msg
    || Helpers.contains ~sub:"not defined" msg)

let annealing_tiny_budget () =
  let params =
    { Baselines.Annealing.default_params with Baselines.Annealing.sweeps = 1 }
  in
  let g = Workloads.Classic.diffeq () in
  let s = Helpers.check_ok "sa" (Baselines.Annealing.run ~params g ~cs:5) in
  Helpers.check_schedule s

let fds_exact_budget () =
  (* FDS at the exact critical path has zero slack everywhere. *)
  let g = Helpers.chain4 () in
  let s = Helpers.check_ok "fds" (Baselines.Fds.run g ~cs:4) in
  Alcotest.(check bool) "fully serial" true
    (s.Core.Schedule.start = [| 1; 2; 3; 4 |])

let mutex_merge_then_synthesise () =
  (* merge_shared unconditionalises the shared op; everything downstream
     still holds together. *)
  let g =
    Helpers.check_ok "merge"
      (Dfg.Mutex.merge_shared (Workloads.Classic.cond_example ()))
  in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  Helpers.check_schedule o.Core.Mfsa.schedule

let verilog_of_guarded_design () =
  let g = Workloads.Classic.cond_example () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let v = Rtl.Verilog.emit o.Core.Mfsa.datapath ctrl in
  (* Negative-arm guards appear inverted. *)
  Alcotest.(check bool) "inverted guard" true (Helpers.contains ~sub:"!c1" v)

let schedule_pp_without_columns () =
  let g = Helpers.diamond () in
  let s =
    Core.Schedule.make ~config:Core.Config.default ~cs:2 g [| 1; 1; 2 |]
  in
  let out = Format.asprintf "%a" Core.Schedule.pp s in
  Alcotest.(check bool) "names without units" true
    (Helpers.contains ~sub:"m1" out && not (Helpers.contains ~sub:"m1@" out))

let chained_sum_equivalence_under_chaining () =
  (* MFSA with chaining enabled: same-step ALU-to-ALU wires must still
     compute correctly in the machine. *)
  let g = Workloads.Classic.chained_sum () in
  let lib = Celllib.Ncr.for_graph g in
  let config =
    {
      (Core.Config.of_library lib) with
      Core.Config.chaining =
        Some
          {
            Core.Config.prop_delay = lib.Celllib.Library.prop_delay;
            clock = 100.;
          };
    }
  in
  let cs = Core.Timeframe.min_cs config g in
  Alcotest.(check int) "chained depth" 3 cs;
  let o = Helpers.check_ok "mfsa" (Core.Mfsa.run ~config ~library:lib ~cs g) in
  Helpers.check_schedule o.Core.Mfsa.schedule;
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  match Sim.Equiv.check_random ~runs:20 o.Core.Mfsa.datapath ctrl with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let suite =
  [
    test "resource MFS with partial limits" resource_mfs_partial_limits;
    test "single-operation graph" single_op_graph;
    test "wide independent graph" wide_independent_graph;
    test "huge budget converges to one unit per class" huge_budget_one_unit_each;
    test "deeply nested conditionals compile" deep_nested_frontend;
    test "front-end cross-branch read rejected" frontend_cross_branch_rejected;
    test "annealing with one sweep" annealing_tiny_budget;
    test "FDS with zero slack" fds_exact_budget;
    test "merge then synthesise" mutex_merge_then_synthesise;
    test "verilog carries inverted guards" verilog_of_guarded_design;
    test "schedule pp without columns" schedule_pp_without_columns;
    test "chained design computes correctly" chained_sum_equivalence_under_chaining;
  ]
