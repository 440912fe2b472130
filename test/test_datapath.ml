let test name f = Alcotest.test_case name `Quick f

let unit_delay _ = 1
let alu kinds = Celllib.Library.make_alu kinds

let elaborate_diamond () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  Alcotest.(check int) "three ALUs" 3 (List.length dp.Rtl.Datapath.alus);
  Alcotest.(check int) "alu_of m1" 0 dp.Rtl.Datapath.alu_of.(0);
  (* m1/m2 latch into registers read by the adder. *)
  let srcs = List.assoc 2 dp.Rtl.Datapath.operand_sources in
  List.iter
    (fun s ->
      match s with
      | Rtl.Datapath.From_reg _ -> ()
      | _ -> Alcotest.fail "adder operands should come from registers")
    srcs

let chained_source () =
  let g = Helpers.chain4 () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2; 2 |] ~delay:unit_delay
         ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Add ], [ 0; 2 ]); (alu [ Dfg.Op.Add ], [ 1; 3 ]) ])
  in
  (* c2 consumes c1 in the same step: must read the ALU output wire. *)
  let c2_srcs = List.assoc 1 dp.Rtl.Datapath.operand_sources in
  Alcotest.(check bool) "first operand chained" true
    (match c2_srcs with Rtl.Datapath.From_alu 0 :: _ -> true | _ -> false)

let missing_node_rejected () =
  let g = Helpers.diamond () in
  let msg =
    Helpers.check_err "missing node"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:[ (alu [ Dfg.Op.Mul ], [ 0; 1 ]) ])
  in
  Alcotest.(check bool) "says missing" true (Helpers.contains ~sub:"missing" (Diag.message msg))

let duplicate_node_rejected () =
  let g = Helpers.diamond () in
  ignore
    (Helpers.check_err "duplicate"
       (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
          ~assignments:
            [ (alu [ Dfg.Op.Mul ], [ 0; 1 ]);
              (alu [ Dfg.Op.Mul; Dfg.Op.Add ], [ 1; 2 ]) ]))

let incapable_alu_rejected () =
  let g = Helpers.diamond () in
  let msg =
    Helpers.check_err "incapable"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Add ], [ 0; 1; 2 ]) ])
  in
  Alcotest.(check bool) "mentions the ALU" true (Helpers.contains ~sub:"mul" (Diag.message msg))

let unknown_id_rejected () =
  let g = Helpers.diamond () in
  ignore
    (Helpers.check_err "unknown id"
       (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
          ~assignments:[ (alu [ Dfg.Op.Mul; Dfg.Op.Add ], [ 0; 1; 2; 9 ]) ]))

let self_loop_detection () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul; Dfg.Op.Add ], [ 0; 2 ]);
             (alu [ Dfg.Op.Mul ], [ 1 ]) ])
  in
  (* m1 (id 0) feeds s (id 2) and they share ALU 0. *)
  Alcotest.(check (list int)) "self loop on ALU 0" [ 0 ]
    (Rtl.Datapath.self_loop_alus dp)

let interconnect_sharing_via_registers () =
  (* Two consumers of the same value read the same register: one mux input. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "x" Dfg.Op.Add [ "a"; "b" ];
        Helpers.op "u" Dfg.Op.Mul [ "x"; "a" ];
        Helpers.op "v" Dfg.Op.Mul [ "x"; "b" ];
      ]
  in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 2; 3 |] ~delay:unit_delay ~cs:3
         ~assignments:
           [ (alu [ Dfg.Op.Add ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1; 2 ]) ])
  in
  let mult = List.nth dp.Rtl.Datapath.alus 1 in
  (* Both mults read x from the same register: port 1 has one source. *)
  Alcotest.(check int) "port 1 shares the register line" 1
    (List.length mult.Rtl.Datapath.a_share.Rtl.Mux_share.l1)

let mux_counting () =
  (* Two ops on one ALU with four distinct operands: two 2-input muxes. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b"; "c"; "d" ]
      [
        Helpers.op "x" Dfg.Op.Sub [ "a"; "b" ];
        Helpers.op "y" Dfg.Op.Sub [ "c"; "d" ];
      ]
  in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:[ (alu [ Dfg.Op.Sub ], [ 0; 1 ]) ])
  in
  Alcotest.(check int) "two muxes" 2 (Rtl.Datapath.mux_count dp);
  Alcotest.(check int) "four inputs" 4 (Rtl.Datapath.mux_inputs dp);
  (* A single-op ALU needs no mux at all. *)
  let dp1 =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Sub ], [ 0 ]); (alu [ Dfg.Op.Sub ], [ 1 ]) ])
  in
  Alcotest.(check int) "no muxes" 0 (Rtl.Datapath.mux_count dp1)

let dot_netlist () =
  let g = Helpers.diamond () in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1; 1; 2 |] ~delay:unit_delay ~cs:2
         ~assignments:
           [ (alu [ Dfg.Op.Mul ], [ 0 ]); (alu [ Dfg.Op.Mul ], [ 1 ]);
             (alu [ Dfg.Op.Add ], [ 2 ]) ])
  in
  let dot = Rtl.Dot_netlist.of_datapath ~name:"demo" dp in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (Helpers.contains ~sub dot))
    [ "digraph demo"; "alu0"; "reg0"; "->"; "shape=record" ];
  (* The adder reads two registers: both edges drawn once. *)
  Alcotest.(check int) "reg->alu2 edges" 2
    (Helpers.count_occurrences ~sub:"-> alu2;" dot)

let suite =
  [
    test "diamond elaborates" elaborate_diamond;
    test "DOT netlist rendering" dot_netlist;
    test "chained operand reads the ALU wire" chained_source;
    test "missing node rejected" missing_node_rejected;
    test "duplicate assignment rejected" duplicate_node_rejected;
    test "incapable ALU rejected" incapable_alu_rejected;
    test "unknown node id rejected" unknown_id_rejected;
    test "self loops detected" self_loop_detection;
    test "register lines shared across consumers" interconnect_sharing_via_registers;
    test "mux counting" mux_counting;
  ]
