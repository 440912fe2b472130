let test name f = Alcotest.test_case name `Quick f

let unit_delay _ = 1
let alu kinds = Celllib.Library.make_alu kinds

let eval_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let env =
    [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 10); ("three", 3) ]
  in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  (* u1 = u - 3*x*u*dx - 3*y*dx = 3 - 18 - 15 = -30; x1 = 3; y1 = 8. *)
  Alcotest.(check (option int)) "s2" (Some (-30)) (Sim.Eval.value v "s2");
  Alcotest.(check (option int)) "a1" (Some 3) (Sim.Eval.value v "a1");
  Alcotest.(check (option int)) "a2" (Some 8) (Sim.Eval.value v "a2");
  Alcotest.(check (option int)) "c1 true" (Some 1) (Sim.Eval.value v "c1")

let eval_missing_input () =
  let g = Workloads.Classic.diffeq () in
  let msg = Helpers.check_err "missing" (Sim.Eval.run g [ ("x", 1) ]) in
  Alcotest.(check bool) "names a missing input" true
    (Helpers.contains ~sub:"missing" (Diag.message msg))

let active_guards () =
  let g = Workloads.Classic.cond_example () in
  let env = [ ("a", 1); ("b", 5); ("c", 2) ] in
  let v = Helpers.check_ok "eval" (Sim.Eval.run g env) in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  (* a < b, so c1 = 1: the true arm is active. *)
  Alcotest.(check bool) "t1 active" true (Sim.Eval.active g ~values:v (id "t1"));
  Alcotest.(check bool) "t2 inactive" false (Sim.Eval.active g ~values:v (id "t2"));
  Alcotest.(check bool) "unguarded active" true
    (Sim.Eval.active g ~values:v (id "c1"))

let machine_runs_diamond () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  let env = [ ("a", 2); ("b", 3); ("c", 4); ("d", 5) ] in
  let r = Helpers.check_ok "machine" (Sim.Machine.run dp ctrl ~env) in
  Alcotest.(check (option int)) "s = 2*3 + 4*5" (Some 26)
    (List.assoc_opt "s" r.Sim.Machine.values)

let machine_skips_inactive () =
  let g = Workloads.Classic.cond_example () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:unit_delay
  in
  let env = [ ("a", 9); ("b", 5); ("c", 2) ] in
  (* a >= b: c1 = 0, the false arm runs. *)
  let r =
    Helpers.check_ok "machine" (Sim.Machine.run o.Core.Mfsa.datapath ctrl ~env)
  in
  Alcotest.(check (option int)) "t2 executed" (Some 11)
    (List.assoc_opt "t2" r.Sim.Machine.values);
  Alcotest.(check (option int)) "t1 skipped" None
    (List.assoc_opt "t1" r.Sim.Machine.values)

let machine_missing_input () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  ignore
    (Helpers.check_err "missing input"
       (Sim.Machine.run dp ctrl ~env:[ ("a", 1); ("b", 2); ("c", 3) ]))

let equiv_detects_broken_controller () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  (* Corrupt the add's operand sources: both read the same multiplier. *)
  let broken =
    {
      ctrl with
      Rtl.Controller.micros =
        List.map
          (fun m ->
            if m.Rtl.Controller.m_node = 2 then
              {
                m with
                Rtl.Controller.m_sources =
                  [ List.hd m.Rtl.Controller.m_sources;
                    List.hd m.Rtl.Controller.m_sources ];
              }
            else m)
          ctrl.Rtl.Controller.micros;
    }
  in
  match Sim.Equiv.check dp broken ~env:[ ("a", 2); ("b", 3); ("c", 4); ("d", 5) ] with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error d ->
      Alcotest.(check bool) "mismatch reported" true
        (Helpers.contains ~sub:"mismatch" (Diag.message d))

let equiv_random_on_facet () =
  let g = Workloads.Classic.facet () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g + 1) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:unit_delay
  in
  match Sim.Equiv.check_random ~runs:30 o.Core.Mfsa.datapath ctrl with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let eval_deterministic =
  Helpers.qcheck ~count:50 "golden model is deterministic"
    (Helpers.dag_gen ())
    (fun g ->
      let env = List.mapi (fun i v -> (v, i * 7)) (Dfg.Graph.inputs g) in
      Sim.Eval.run g env = Sim.Eval.run g env)

let suite =
  [
    test "golden model on diffeq" eval_diffeq;
    test "golden model reports missing inputs" eval_missing_input;
    test "guard activity" active_guards;
    test "machine executes the diamond" machine_runs_diamond;
    test "machine skips inactive branches" machine_skips_inactive;
    test "machine reports missing inputs" machine_missing_input;
    test "equivalence detects a corrupted controller" equiv_detects_broken_controller;
    test "random-input equivalence on facet" equiv_random_on_facet;
    eval_deterministic;
  ]
