let test name f = Alcotest.test_case name `Quick f

let unit_delay _ = 1
let alu kinds = Celllib.Library.make_alu kinds

let chain_dp () =
  let g = Helpers.chain4 () in
  Helpers.check_ok "elaborate"
    (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2; 2 |] ~delay:unit_delay ~cs:2
       ~assignments:
         [ (alu [ Dfg.Op.Add ], [ 0; 2 ]); (alu [ Dfg.Op.Add ], [ 1; 3 ]) ])

let micro_ordering () =
  let dp = chain_dp () in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  Alcotest.(check int) "two states" 2 ctrl.Rtl.Controller.steps;
  (* Within step 1, producer c1 (node 0) must precede chained c2 (node 1). *)
  let step1 =
    List.filter (fun m -> m.Rtl.Controller.m_step = 1) ctrl.Rtl.Controller.micros
  in
  Alcotest.(check (list int)) "chain order" [ 0; 1 ]
    (List.map (fun m -> m.Rtl.Controller.m_node) step1)

let input_loads () =
  let dp = chain_dp () in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  (* y is consumed in step 2, so it must be preloaded into a register. *)
  Alcotest.(check bool) "y preloaded" true
    (List.mem_assoc "y" ctrl.Rtl.Controller.input_loads)

let chained_value_has_no_dest () =
  let dp = chain_dp () in
  let ctrl =
    Rtl.Controller.make dp ~delay:unit_delay
  in
  let micro_of n =
    List.find (fun m -> m.Rtl.Controller.m_node = n) ctrl.Rtl.Controller.micros
  in
  (* c1 is consumed only inside step 1 (by chained c2): no register. *)
  Alcotest.(check bool) "c1 unlatched" true ((micro_of 0).Rtl.Controller.m_dest = None);
  (* c2 crosses into step 2: latched. *)
  Alcotest.(check bool) "c2 latched" true ((micro_of 1).Rtl.Controller.m_dest <> None)

let multicycle_latch_step () =
  let g = Helpers.diamond () in
  let delay i = if i <= 1 then 2 else 1 in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 3 |] ~delay ~cs:3
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let ctrl = Rtl.Controller.make dp ~delay in
  let m0 =
    List.find (fun m -> m.Rtl.Controller.m_node = 0) ctrl.Rtl.Controller.micros
  in
  Alcotest.(check int) "issued at 1" 1 m0.Rtl.Controller.m_step;
  Alcotest.(check int) "latched at 2" 2 m0.Rtl.Controller.m_latch_step

let guards_carried () =
  let g = Workloads.Classic.cond_example () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:unit_delay
  in
  let t1 = (Option.get (Dfg.Graph.find g "t1")).Dfg.Graph.id in
  let m =
    List.find (fun m -> m.Rtl.Controller.m_node = t1) ctrl.Rtl.Controller.micros
  in
  Alcotest.(check (list (pair string bool))) "guard carried" [ ("c1", true) ]
    m.Rtl.Controller.m_guards

let suite =
  [
    test "micros ordered by chaining depth" micro_ordering;
    test "inputs preloaded" input_loads;
    test "chained values are not latched" chained_value_has_no_dest;
    test "multi-cycle results latch at the finish step" multicycle_latch_step;
    test "guards carried into micro-orders" guards_carried;
  ]
