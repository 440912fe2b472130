(* Feature interactions: the paper's extensions combined. *)

let test name f = Alcotest.test_case name `Quick f

let multicycle_plus_latency () =
  (* 2-cycle multipliers under functional pipelining: spans fold modulo L. *)
  let config =
    { Core.Config.default with
      Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1);
      functional_latency = Some 3 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Core.Timeframe.min_cs config g in
  let o = Helpers.mfs_time ~config g cs in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* 13 two-cycle mults folded into 3 slots: at least ceil(26/3) = 9. *)
  Alcotest.(check bool) "folding floor with spans" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" >= 9)

let pipelined_plus_latency () =
  (* Same, but pipelined units only occupy their issue slot. *)
  let config =
    { Core.Config.default with
      Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1);
      pipelined = (function Dfg.Op.Mul -> true | _ -> false);
      functional_latency = Some 3 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Core.Timeframe.min_cs config g in
  let o = Helpers.mfs_time ~config g cs in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* Issue-only occupancy: floor drops to ceil(13/3) = 5. *)
  Alcotest.(check bool) "pipelined folding floor" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" >= 5)

let chaining_plus_resource () =
  (* Resource-constrained MFS with chaining: fewer units, chained steps. *)
  let config =
    { Core.Config.default with
      Core.Config.chaining =
        Some { Core.Config.prop_delay = (fun _ -> 40.); clock = 100. } }
  in
  let g = Workloads.Classic.chained_sum () in
  let o =
    Helpers.check_ok "resource+chain"
      (Core.Mfs.run ~config g
         (Core.Mfs.Resource { limits = [ ("+", 1); ("-", 1) ] }))
  in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check bool) "single adder respected" true
    (Helpers.fu_count o.Core.Mfs.schedule "+" <= 1);
  (* Chaining still compresses below the unchained serial makespan. *)
  Alcotest.(check bool) "beats unchained lower bound" true
    (Core.Schedule.makespan o.Core.Mfs.schedule <= 5)

let guards_plus_multicycle () =
  (* Mutually exclusive 2-cycle multiplications overlap on one unit. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "c" Dfg.Op.Lt [ "a"; "b" ];
        ("m1", Dfg.Op.Mul, [ "a"; "b" ], [ ("c", true) ]);
        ("m2", Dfg.Op.Mul, [ "b"; "a" ], [ ("c", false) ]);
      ]
  in
  let config =
    { Core.Config.default with
      Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1) }
  in
  let o = Helpers.mfs_time ~config g 3 in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check int) "one multiplier" 1
    (Helpers.fu_count o.Core.Mfs.schedule "*")

let cse_then_mfs_saves_a_unit () =
  (* Removing diffeq's duplicate u*dx drops the T=6 multiplier need. *)
  let g = Workloads.Classic.diffeq () in
  let g' = Helpers.check_ok "cse" (Dfg.Cse.run g) in
  let before = Helpers.mfs_time g 6 in
  let after = Helpers.mfs_time g' 6 in
  Alcotest.(check bool) "CSE never hurts" true
    (Helpers.fu_count after.Core.Mfs.schedule "*"
    <= Helpers.fu_count before.Core.Mfs.schedule "*")

let style2_plus_resource () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "style2 resource"
      (Core.Mfsa.run_resource ~style:Core.Mfsa.No_self_loop ~library:lib
         ~limits:[ ("*", 2) ] g)
  in
  Helpers.check_schedule o.Core.Mfsa.schedule;
  Alcotest.(check (list int)) "no self loops" []
    (Rtl.Datapath.self_loop_alus o.Core.Mfsa.datapath)

let three_way_case () =
  (* §5.1 covers case statements: a 3-arm case encoded as nested if-else
     (as the front end does) makes all arms pairwise exclusive, so one unit
     serves all three. *)
  let src =
    "input a, b;\n\
     c1 = a < 10;\n\
     if (c1) { r = a * b; } else {\n\
    \  c2 = a < 20;\n\
    \  if (c2) { r2 = a * a; } else { r3 = b * b; }\n\
     }\n"
  in
  let g = Helpers.check_ok "compile" (Dfg.Frontend.compile src) in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  let arms = [ id "r"; id "r2_else"; id "r3_else_else" ] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i <> j then
            Alcotest.(check bool) "arms pairwise exclusive" true
              (Dfg.Graph.mutually_exclusive g i j))
        arms)
    arms;
  (* All three multiplications share one unit and, where frames allow, a
     control step. *)
  let o = Helpers.mfs_time g (Dfg.Bounds.critical_path g) in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check int) "one multiplier serves the case" 1
    (Helpers.fu_count o.Core.Mfs.schedule "*");
  (* And the synthesised design executes the right arm. *)
  let lib = Celllib.Ncr.for_graph g in
  let m =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g) g)
  in
  let ctrl =
    Rtl.Controller.make m.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let consts = Dfg.Frontend.const_env g in
  List.iter
    (fun (a, expect_node, expect_v) ->
      let env = [ ("a", a); ("b", 3) ] @ consts in
      let r =
        Helpers.check_ok "machine" (Sim.Machine.run m.Core.Mfsa.datapath ctrl ~env)
      in
      Alcotest.(check (option int))
        (Printf.sprintf "a=%d takes arm %s" a expect_node)
        (Some expect_v)
        (List.assoc_opt expect_node r.Sim.Machine.values))
    [ (5, "r", 15); (15, "r2_else", 225); (99, "r3_else_else", 9) ]

let suite =
  [
    test "three-way case via nested if-else (5.1)" three_way_case;
    test "multi-cycle + functional pipelining" multicycle_plus_latency;
    test "structural + functional pipelining" pipelined_plus_latency;
    test "chaining + resource constraints" chaining_plus_resource;
    test "guards + multi-cycle sharing" guards_plus_multicycle;
    test "CSE then MFS" cse_then_mfs_saves_a_unit;
    test "style 2 + resource constraints" style2_plus_resource;
  ]
