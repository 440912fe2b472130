let test name f = Alcotest.test_case name `Quick f

let synthesised name =
  let g = Option.get (Workloads.Classic.by_name name) in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g + 1) g)
  in
  let delay i =
    Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
      (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay
  in
  (o, ctrl)

let structure () =
  let o, ctrl = synthesised "diffeq" in
  let src = Rtl.Verilog.emit ~module_name:"diffeq" o.Core.Mfsa.datapath ctrl in
  Alcotest.(check bool) "module header" true
    (Helpers.contains ~sub:"module diffeq(clk, rst" src);
  Alcotest.(check bool) "endmodule" true (Helpers.contains ~sub:"endmodule" src);
  (* One declared register per allocated register, one wire per ALU. *)
  Alcotest.(check int) "register declarations"
    o.Core.Mfsa.cost.Rtl.Cost.n_regs
    (Helpers.count_occurrences ~sub:"reg [31:0] reg_" src);
  Alcotest.(check int) "one wire per ALU"
    o.Core.Mfsa.cost.Rtl.Cost.n_alus
    (Helpers.count_occurrences ~sub:"wire [31:0] alu_out_" src)

let all_nodes_present () =
  let o, ctrl = synthesised "tseng" in
  let g = o.Core.Mfsa.schedule.Core.Schedule.graph in
  let src = Rtl.Verilog.emit o.Core.Mfsa.datapath ctrl in
  List.iter
    (fun nd ->
      Alcotest.(check bool)
        (nd.Dfg.Graph.name ^ " mentioned")
        true
        (Helpers.contains ~sub:("// " ^ nd.Dfg.Graph.name) src))
    (Dfg.Graph.nodes g)

let sanitizer () =
  let g =
    Helpers.graph_exn ~inputs:[ "weird-name" ]
      [ Helpers.op "n" Dfg.Op.Neg [ "weird-name" ] ]
  in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:[| 1 |] ~delay:(fun _ -> 1) ~cs:1
         ~assignments:[ (Celllib.Library.make_alu [ Dfg.Op.Neg ], [ 0 ]) ])
  in
  let ctrl =
    Rtl.Controller.make dp ~delay:(fun _ -> 1)
  in
  let src = Rtl.Verilog.emit dp ctrl in
  Alcotest.(check bool) "dash sanitised" true
    (Helpers.contains ~sub:"weird_name" src);
  Alcotest.(check bool) "no dash identifier" false
    (Helpers.contains ~sub:"input [31:0] weird-name" src)

let guards_in_rtl () =
  let g = Workloads.Classic.cond_example () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let src = Rtl.Verilog.emit o.Core.Mfsa.datapath ctrl in
  Alcotest.(check bool) "guard condition appears" true
    (Helpers.contains ~sub:"c1 != 0" src)

(* t3 and t5 are exclusive multiplies sharing one unit in one state: the
   unit's output mux must select t5 only on its own arm, or reg latching
   t5 takes t3's product whenever c1 is false. *)
let guards_in_mux_arms () =
  let g = Workloads.Classic.cond_example () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let lines =
    String.split_on_char '\n' (Rtl.Verilog.emit o.Core.Mfsa.datapath ctrl)
  in
  let t5_lines sub =
    List.filter
      (fun l ->
        String.ends_with ~suffix:"// t5" l && Helpers.contains ~sub l)
      lines
  in
  let arm = t5_lines " ? " and latch = t5_lines "<=" in
  Alcotest.(check int) "one mux arm for t5" 1 (List.length arm);
  Alcotest.(check int) "one latch line for t5" 1 (List.length latch);
  Alcotest.(check bool) "t5's mux arm carries !c1" true
    (Helpers.contains ~sub:"(!c1 != 0)) ? " (List.hd arm));
  Alcotest.(check bool) "so does its latch line" true
    (Helpers.contains ~sub:"(!c1 != 0)) reg_" (List.hd latch))

let suite =
  [
    test "module structure" structure;
    test "every op appears in the netlist" all_nodes_present;
    test "identifiers sanitised" sanitizer;
    test "guards gate register writes" guards_in_rtl;
    test "guards select shared units' mux arms" guards_in_mux_arms;
  ]
