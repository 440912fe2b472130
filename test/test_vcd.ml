let test name f = Alcotest.test_case name `Quick f

let run_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let o = Helpers.check_ok "mfsa" (Core.Mfsa.run ~library:lib ~cs:4 g) in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let env =
    [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 10); ("three", 3) ]
  in
  let r =
    Helpers.check_ok "machine" (Sim.Machine.run o.Core.Mfsa.datapath ctrl ~env)
  in
  (o, r)

let trace_structure () =
  let _, r = run_diffeq () in
  Alcotest.(check int) "one snapshot per step" 4 (List.length r.Sim.Machine.trace);
  List.iteri
    (fun i snap ->
      Alcotest.(check int) "steps in order" (i + 1) snap.Sim.Machine.snap_step)
    r.Sim.Machine.trace;
  (* The last snapshot equals the final register file. *)
  let last = List.nth r.Sim.Machine.trace 3 in
  Alcotest.(check bool) "final snapshot matches" true
    (last.Sim.Machine.snap_regs = r.Sim.Machine.final_regs)

let trace_progress () =
  let _, r = run_diffeq () in
  let defined snap =
    Array.fold_left
      (fun acc v -> if v = None then acc else acc + 1)
      0 snap.Sim.Machine.snap_regs
  in
  let counts = List.map defined r.Sim.Machine.trace in
  (* Registers fill up monotonically on this design (no undefined gaps). *)
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "register file fills up" true (non_decreasing counts)

let vcd_structure () =
  let o, r = run_diffeq () in
  let src = Sim.Vcd.emit ~design_name:"diffeq" o.Core.Mfsa.datapath r in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (Helpers.contains ~sub src))
    [ "$timescale"; "$scope module diffeq"; "$enddefinitions"; "$dumpvars";
      "#0"; "#1"; "#4"; "reg_0"; "alu_out_0" ];
  (* One $var per register plus state plus one per ALU. *)
  Alcotest.(check int) "var count"
    (1 + o.Core.Mfsa.cost.Rtl.Cost.n_regs + o.Core.Mfsa.cost.Rtl.Cost.n_alus)
    (Helpers.count_occurrences ~sub:"$var" src)

let vcd_values_change () =
  let o, r = run_diffeq () in
  let src = Sim.Vcd.emit o.Core.Mfsa.datapath r in
  (* Binary value lines appear after timestamps; at least one real value. *)
  Alcotest.(check bool) "binary values present" true
    (Helpers.contains ~sub:"b000000000000000000000000000" src)

let vcd_file_roundtrip () =
  let o, r = run_diffeq () in
  let path = Filename.temp_file "mfs" ".vcd" in
  (match Sim.Vcd.write_file ~path o.Core.Mfsa.datapath r with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e));
  let content = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check bool) "file written" true
    (Helpers.contains ~sub:"$enddefinitions" content);
  Sys.remove path

let suite =
  [
    test "trace structure" trace_structure;
    test "register file fills monotonically" trace_progress;
    test "VCD structure" vcd_structure;
    test "VCD carries values" vcd_values_change;
    test "VCD file writing" vcd_file_roundtrip;
  ]
