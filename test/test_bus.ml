let test name f = Alcotest.test_case name `Quick f

let unit_delay _ = 1
let alu kinds = Celllib.Library.make_alu kinds

let diamond_buses () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let b = Rtl.Bus.allocate dp in
  (* Step 1 moves four input operands, step 2 two register operands. *)
  Alcotest.(check int) "peak transfers" 4 b.Rtl.Bus.buses;
  Alcotest.(check int) "step 1 load" 4 b.Rtl.Bus.per_step.(1);
  Alcotest.(check int) "step 2 load" 2 b.Rtl.Bus.per_step.(2);
  (match Rtl.Bus.check_diags b with
  | [] -> ()
  | ds ->
      Alcotest.failf "invalid: %s"
        (String.concat ";" (List.map Diag.message ds)));
  Alcotest.(check bool) "cost positive" true (Rtl.Bus.cost b > 0.)

let chained_operands_skip_buses () =
  let g = Helpers.chain4 () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2; 2 |] ~delay:unit_delay
         ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Add ], [ 0; 2 ]); (alu [ Dfg.Op.Add ], [ 1; 3 ]) ])
  in
  let b = Rtl.Bus.allocate dp in
  (* c2 and c4 read their chained operand over a direct wire. *)
  Alcotest.(check bool) "chained reads not bused" true
    (List.for_all
       (fun tr -> match tr.Rtl.Bus.t_source with
          | Rtl.Datapath.From_alu _ -> false
          | _ -> true)
       b.Rtl.Bus.transfers);
  (* Step 1: c1 reads x,y on buses; c2 reads only y on a bus. *)
  Alcotest.(check int) "step 1 transfers" 3 b.Rtl.Bus.per_step.(1)

let serial_design_needs_fewer_buses () =
  (* The MUX-vs-bus trade-off: a serial schedule needs few buses. *)
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let fast = Helpers.check_okd "fast" (Core.Mfsa.run ~library:lib ~cs:4 g) in
  let slow =
    Helpers.check_okd "slow"
      (Core.Mfsa.run_resource ~library:lib ~limits:[ ("*", 1) ] g)
  in
  let buses o = (Rtl.Bus.allocate o.Core.Mfsa.datapath).Rtl.Bus.buses in
  Alcotest.(check bool) "serial needs fewer buses" true
    (buses slow <= buses fast)

let bus_validity_random =
  Helpers.qcheck ~count:40 "bus allocation is valid on random designs"
    (Helpers.dag_gen ~max_ops:20 ())
    (fun g ->
      let lib = Celllib.Ncr.for_graph g in
      let cs = Dfg.Bounds.critical_path g + 1 in
      match Core.Mfsa.run ~library:lib ~cs g with
      | Error _ -> false
      | Ok o ->
          let b = Rtl.Bus.allocate o.Core.Mfsa.datapath in
          Rtl.Bus.check_diags b = []
          && b.Rtl.Bus.buses
             = Array.fold_left max 0 b.Rtl.Bus.per_step)

let suite =
  [
    test "diamond bus allocation" diamond_buses;
    test "chained operands use direct wires" chained_operands_skip_buses;
    test "serial designs need fewer buses" serial_design_needs_fewer_buses;
    bus_validity_random;
  ]
