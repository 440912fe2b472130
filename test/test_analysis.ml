let test name f = Alcotest.test_case name `Quick f

let codes fs = List.map (fun f -> f.Analysis.Finding.diag.Diag.code) fs
let error_codes fs = codes (Analysis.Finding.errors fs)
let has_error code fs = List.mem code (error_codes fs)
let has_warning code fs = List.mem code (codes (Analysis.Finding.warnings fs))

let check_no_errors what fs =
  Alcotest.(check (list string)) (what ^ ": no error findings") []
    (error_codes fs)

(* --- DFG lint ------------------------------------------------------- *)

let dfg_clean () =
  let fs = Analysis.Dfg_lint.check (Helpers.diamond ()) in
  Alcotest.(check (list string)) "no findings at all" [] (codes fs)

let dfg_dead_input () =
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b"; "z" ]
      [ Helpers.op "m" Dfg.Op.Mul [ "a"; "b" ] ]
  in
  let fs = Analysis.Dfg_lint.check g in
  Alcotest.(check bool) "dead input warned" true
    (has_warning "lint.dead-input" fs);
  check_no_errors "warnings only" fs;
  Alcotest.(check bool) "z is flagged" true
    (List.mem_assoc "z" (Analysis.Finding.flagged fs))

let dfg_contradictory_guards () =
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        ("c", Dfg.Op.Lt, [ "a"; "b" ], []);
        ("t", Dfg.Op.Add, [ "a"; "b" ], [ ("c", true); ("c", false) ]);
      ]
  in
  let fs = Analysis.Dfg_lint.check g in
  Alcotest.(check bool) "contradiction is an error" true
    (has_error "lint.contradictory-guards" fs)

let dfg_guard_hygiene_warnings () =
  (* Guard produced by arithmetic, and the same (cond, arm) listed twice. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        ("c", Dfg.Op.Add, [ "a"; "b" ], []);
        ("t", Dfg.Op.Sub, [ "a"; "b" ], [ ("c", true); ("c", true) ]);
      ]
  in
  let fs = Analysis.Dfg_lint.check g in
  Alcotest.(check bool) "arithmetic guard warned" true
    (has_warning "lint.guard-arith" fs);
  Alcotest.(check bool) "duplicate guard warned" true
    (has_warning "lint.duplicate-guard" fs);
  check_no_errors "hygiene issues are warnings" fs

let dfg_mutex_misuse () =
  (* u's guard set contains the opposite arm of its producer t, so the two
     look mutually exclusive to the FU-sharing logic, yet t feeds u. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        ("c", Dfg.Op.Lt, [ "a"; "b" ], []);
        ("t", Dfg.Op.Add, [ "a"; "b" ], [ ("c", true) ]);
        ("u", Dfg.Op.Add, [ "t"; "b" ], [ ("c", true); ("c", false) ]);
      ]
  in
  let fs = Analysis.Dfg_lint.check g in
  Alcotest.(check bool) "mutex misuse is an error" true
    (has_error "lint.mutex-misuse" fs)

let dfg_chain_clock () =
  let config =
    {
      Core.Config.default with
      Core.Config.chaining =
        Some { Core.Config.prop_delay = (fun _ -> 20.0); clock = 10.0 };
    }
  in
  let fs = Analysis.Dfg_lint.check ~config (Helpers.diamond ()) in
  Alcotest.(check bool) "unplaceable op is an error" true
    (has_error "lint.chain-clock" fs);
  Alcotest.(check int) "infeasible exit code" 4
    (Analysis.Finding.exit_code fs)

let dfg_loop_budget () =
  let tree =
    { Core.Loops.body = Helpers.chain4 (); budget = 2; children = [] }
  in
  let fs = Analysis.Dfg_lint.loop_tree tree in
  Alcotest.(check bool) "tight loop budget is an error" true
    (has_error "lint.loop-budget" fs)

let dfg_loop_placeholder () =
  let leaf =
    { Core.Loops.body = Helpers.diamond (); budget = 2; children = [] }
  in
  let tree =
    {
      Core.Loops.body = Helpers.chain4 ();
      budget = 10;
      children = [ ("missing", leaf) ];
    }
  in
  let fs = Analysis.Dfg_lint.loop_tree tree in
  Alcotest.(check bool) "missing placeholder is an error" true
    (has_error "lint.loop-placeholder" fs)

(* --- Feasibility bounds --------------------------------------------- *)

let parallel_muls () =
  Helpers.graph_exn ~inputs:[ "a"; "b" ]
    [
      Helpers.op "m1" Dfg.Op.Mul [ "a"; "b" ];
      Helpers.op "m2" Dfg.Op.Mul [ "a"; "b" ];
      Helpers.op "m3" Dfg.Op.Mul [ "a"; "b" ];
    ]

let feasibility_analyze () =
  let a = Analysis.Feasibility.analyze ~cs:2 Core.Config.default
      (Helpers.diamond ())
  in
  Alcotest.(check int) "critical path" 2 a.Analysis.Feasibility.min_steps;
  Alcotest.(check (list (pair string int))) "cells per class"
    [ ("*", 2); ("+", 1) ]
    (List.sort compare a.Analysis.Feasibility.class_cells);
  Alcotest.(check (list (pair string int))) "lower bounds"
    [ ("*", 1); ("+", 1) ]
    (List.sort compare a.Analysis.Feasibility.fu_lower_bounds)

let feasibility_clean () =
  check_no_errors "diamond fits cs=2"
    (Analysis.Feasibility.check ~cs:2 Core.Config.default (Helpers.diamond ()))

let feasibility_budget () =
  let fs =
    Analysis.Feasibility.check ~cs:2 Core.Config.default (Helpers.chain4 ())
  in
  Alcotest.(check bool) "budget below critical path" true
    (has_error "lint.infeasible-budget" fs);
  Alcotest.(check int) "exit 4" 4 (Analysis.Finding.exit_code fs)

let feasibility_units () =
  (* Three concurrent multiplications in a 1-step horizon need 3 units. *)
  let g = parallel_muls () in
  let tight =
    Analysis.Feasibility.check ~cs:1 ~limits:[ ("*", 2) ] Core.Config.default g
  in
  Alcotest.(check bool) "cap 2 below bound 3" true
    (has_error "lint.infeasible-units" tight);
  Alcotest.(check int) "exit 4" 4 (Analysis.Finding.exit_code tight);
  check_no_errors "cap 3 is enough"
    (Analysis.Feasibility.check ~cs:1 ~limits:[ ("*", 3) ] Core.Config.default
       g);
  Alcotest.(check bool) "non-positive cap rejected" true
    (has_error "lint.infeasible-units"
       (Analysis.Feasibility.check ~limits:[ ("*", 0) ] Core.Config.default g))

let feasibility_empty () =
  let g = Helpers.graph_exn ~inputs:[ "a" ] [] in
  let fs = Analysis.Feasibility.check ~cs:4 Core.Config.default g in
  Alcotest.(check bool) "empty graph rejected" true
    (has_error "lint.empty-graph" fs);
  Alcotest.(check int) "input-category exit" 3 (Analysis.Finding.exit_code fs)

(* --- Schedule / lifetime / trace audits ------------------------------ *)

let sched_clean () =
  let o = Helpers.mfs_time (Helpers.diamond ()) 2 in
  check_no_errors "schedule audit"
    (Analysis.Sched_lint.schedule o.Core.Mfs.schedule);
  check_no_errors "lifetime audit"
    (Analysis.Sched_lint.lifetimes o.Core.Mfs.schedule);
  check_no_errors "trace audit" (Analysis.Sched_lint.trace o.Core.Mfs.trace)

let inject what = function
  | Some x -> x
  | None -> Alcotest.failf "%s: fault not applicable" what

let sched_catches_corrupt_start () =
  let o = Helpers.mfs_time (Helpers.chain4 ()) 4 in
  let s = inject "corrupt-start" (Harness.Fault.corrupt_start o.Core.Mfs.schedule) in
  Alcotest.(check bool) "horizon breach found" true
    (has_error "lint.sched-horizon" (Analysis.Sched_lint.schedule s));
  Alcotest.(check bool) "lifetime breach found" true
    (has_error "lint.lifetime-horizon" (Analysis.Sched_lint.lifetimes s))

let sched_catches_corrupt_col () =
  let o = Helpers.mfs_time (Helpers.diamond ()) 2 in
  let s = inject "corrupt-col" (Harness.Fault.corrupt_col o.Core.Mfs.schedule) in
  let fs = Analysis.Sched_lint.schedule s in
  Alcotest.(check bool) "FU conflict or range breach found" true
    (has_error "lint.fu-conflict" fs || has_error "lint.sched-col" fs)

let sched_catches_corrupt_trace () =
  let o = Helpers.mfs_time (Helpers.diamond ()) 2 in
  let tr = inject "corrupt-trace" (Harness.Fault.corrupt_trace o.Core.Mfs.trace) in
  Alcotest.(check bool) "non-monotone energy found" true
    (has_error "lint.trace-monotone" (Analysis.Sched_lint.trace tr))

let lifetime_clash_and_overallocation () =
  let o = Helpers.mfs_time (Helpers.diamond ()) 2 in
  let s = o.Core.Mfs.schedule in
  (* m1 and m2 are both latched at boundary 1 and read in step 2, so a
     binding putting them in one register is a clash... *)
  let shared = { Rtl.Left_edge.reg_of = [ ("m1", 0); ("m2", 0) ]; count = 1 } in
  Alcotest.(check bool) "shared register clash found" true
    (has_error "lint.reg-lifetime-clash"
       (Analysis.Sched_lint.lifetimes ~regs:shared s));
  (* ... and a binding claiming far more registers than the max-overlap
     bound draws the over-allocation warning. *)
  let waste = { Rtl.Left_edge.reg_of = [ ("m1", 0); ("m2", 1) ]; count = 99 } in
  let fs = Analysis.Sched_lint.lifetimes ~regs:waste s in
  Alcotest.(check bool) "over-allocation warned" true
    (has_warning "lint.reg-overallocated" fs);
  check_no_errors "over-allocation is only a warning" fs

let mfsa_binding_audits_clean () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let cs = (Analysis.Feasibility.analyze config g).Analysis.Feasibility.min_steps in
  let o = Helpers.check_ok "MFSA" (Core.Mfsa.run ~config ~library:lib ~cs g) in
  let s = o.Core.Mfsa.schedule in
  let regs = o.Core.Mfsa.datapath.Rtl.Datapath.regs in
  check_no_errors "left-edge binding audit"
    (Analysis.Sched_lint.lifetimes ~regs s);
  Alcotest.(check int) "left-edge meets the lower bound"
    (Analysis.Sched_lint.reg_lower_bound s) regs.Rtl.Left_edge.count

(* --- RTL dataflow verification --------------------------------------- *)

let rtl_pipeline g =
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let cs = (Analysis.Feasibility.analyze config g).Analysis.Feasibility.min_steps in
  let o = Helpers.check_ok "MFSA" (Core.Mfsa.run ~config ~library:lib ~cs g) in
  let dp = o.Core.Mfsa.datapath in
  let delay i =
    Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  let ctrl = Rtl.Controller.make dp ~delay in
  (dp, ctrl, delay)

let rtl_clean () =
  let dp, ctrl, delay = rtl_pipeline (Workloads.Classic.diffeq ()) in
  Alcotest.(check (list string)) "no findings at all" []
    (codes (Analysis.Rtl_lint.check dp ctrl ~delay))

let rtl_catches_skew_delay () =
  let dp, ctrl, delay = rtl_pipeline (Workloads.Classic.diffeq ()) in
  let skewed = inject "skew-delay" (Harness.Fault.skew_delay dp ~delay) in
  let fs = Analysis.Rtl_lint.check dp ctrl ~delay:skewed in
  Alcotest.(check bool) "latch edge disagreement found" true
    (has_error "lint.latch-mismatch" fs)

(* --- Every injection mode is caught by a static pass ------------------ *)

let driver_faults_statically_detected () =
  let g = Workloads.Classic.diffeq () in
  let is_lint d =
    String.length d.Diag.code >= 5 && String.sub d.Diag.code 0 5 = "lint."
  in
  List.iter
    (fun fault ->
      let name = Harness.Fault.to_string fault in
      let o = Harness.Driver.run ~fault g in
      Alcotest.(check bool) (name ^ ": fault applied") true
        o.Harness.Driver.fault_applied;
      Alcotest.(check bool) (name ^ ": caught by a lint.* pass") true
        (List.exists is_lint o.Harness.Driver.violations))
    Harness.Fault.all

(* --- No false positives on random DAGs -------------------------------- *)

let lint_clean_prop g =
  let o = Harness.Driver.run g in
  (match o.Harness.Driver.stopped with
  | Some d -> not (Diag.is_bug d)
  | None -> true)
  && o.Harness.Driver.violations = []

let suite =
  [
    test "dfg: diamond is clean" dfg_clean;
    test "dfg: dead input warned" dfg_dead_input;
    test "dfg: contradictory guards rejected" dfg_contradictory_guards;
    test "dfg: guard hygiene warnings" dfg_guard_hygiene_warnings;
    test "dfg: mutex misuse on a data path" dfg_mutex_misuse;
    test "dfg: op slower than the clock" dfg_chain_clock;
    test "dfg: loop budget too tight" dfg_loop_budget;
    test "dfg: loop placeholder missing" dfg_loop_placeholder;
    test "feasibility: analyze diamond" feasibility_analyze;
    test "feasibility: diamond fits" feasibility_clean;
    test "feasibility: budget below critical path" feasibility_budget;
    test "feasibility: unit caps below the bound" feasibility_units;
    test "feasibility: empty graph" feasibility_empty;
    test "sched: clean MFS output" sched_clean;
    test "sched: corrupt-start caught" sched_catches_corrupt_start;
    test "sched: corrupt-col caught" sched_catches_corrupt_col;
    test "sched: corrupt-trace caught" sched_catches_corrupt_trace;
    test "sched: register clash and over-allocation" lifetime_clash_and_overallocation;
    test "sched: MFSA left-edge binding is audit-clean" mfsa_binding_audits_clean;
    test "rtl: clean diffeq netlist" rtl_clean;
    test "rtl: skew-delay caught" rtl_catches_skew_delay;
    test "driver: every fault mode caught statically" driver_faults_statically_detected;
    Helpers.qcheck ~count:200 "lint: no false positives on random DAGs"
      (Helpers.dag_gen ()) lint_clean_prop;
    Helpers.qcheck ~count:40 "lint: no false positives on guarded DAGs"
      (Helpers.guarded_dag_gen ()) lint_clean_prop;
  ]
