(* Regression locks on the headline reproduction results: if an algorithm
   change shifts a Table-1/Table-2 shape, these fail before EXPERIMENTS.md
   silently goes stale. *)

let test name f = Alcotest.test_case name `Quick f

let two_cycle_cfg =
  { Core.Config.default with
    Core.Config.delays = (function Dfg.Op.Mul | Dfg.Op.Div -> 2 | _ -> 1) }

let pipelined_cfg =
  { two_cycle_cfg with
    Core.Config.pipelined = (function Dfg.Op.Mul | Dfg.Op.Div -> true | _ -> false) }

let chain_cfg =
  { Core.Config.default with
    Core.Config.chaining =
      Some { Core.Config.prop_delay = Celllib.Ncr.default.Celllib.Library.prop_delay;
             clock = 100. } }

let counts ?config g cs =
  let o = Helpers.mfs_time ?config g cs in
  Core.Schedule.fu_counts o.Core.Mfs.schedule

let check_counts name expected actual =
  List.iter
    (fun (c, k) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s units" name c)
        k
        (Option.value ~default:0 (List.assoc_opt c actual)))
    expected

let table1_ex1 () =
  (* Paper row (legible): T=4 -> *,++,-,=,&,| ; T=5 -> one of each. *)
  check_counts "tseng T=4"
    [ ("+", 2); ("*", 1); ("-", 1); ("&", 1); ("|", 1); ("=", 1) ]
    (counts (Workloads.Classic.tseng ()) 4);
  check_counts "tseng T=5"
    [ ("+", 1); ("*", 1); ("-", 1); ("&", 1); ("|", 1); ("=", 1) ]
    (counts (Workloads.Classic.tseng ()) 5)

let table1_ex2 () =
  check_counts "chained T=3" [ ("+", 2); ("-", 1) ]
    (counts ~config:chain_cfg (Workloads.Classic.chained_sum ()) 3);
  check_counts "chained T=4" [ ("+", 1); ("-", 1) ]
    (counts ~config:chain_cfg (Workloads.Classic.chained_sum ()) 4)

let table1_ex4 () =
  check_counts "fir16 T=5" [ ("*", 16); ("+", 8) ]
    (counts (Workloads.Classic.fir16 ()) 5);
  check_counts "fir16 T=9" [ ("*", 4); ("+", 2) ]
    (counts (Workloads.Classic.fir16 ()) 9)

let table1_ex6 () =
  (* The EWF operating point: 2 mults at the T=17 floor, 1 from T=18 on. *)
  check_counts "ewf T=17 (2-cycle)" [ ("*", 2); ("+", 2) ]
    (counts ~config:two_cycle_cfg (Workloads.Classic.ewf ()) 17);
  check_counts "ewf T=19 (2-cycle)" [ ("*", 1); ("+", 2) ]
    (counts ~config:two_cycle_cfg (Workloads.Classic.ewf ()) 19);
  check_counts "ewf T=17 (pipelined)" [ ("*", 1); ("+", 2) ]
    (counts ~config:pipelined_cfg (Workloads.Classic.ewf ()) 17)

let table2_style_band () =
  (* Style-2 aggregate overhead stays in a sane band around the paper's
     2-11% (per-example -4%..+15% measured; see EXPERIMENTS.md). *)
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let lib = Celllib.Ncr.for_graph g in
      let run style = Helpers.check_ok "mfsa" (Core.Mfsa.run ~style ~library:lib ~cs g) in
      let c1 = (run Core.Mfsa.Unrestricted).Core.Mfsa.cost.Rtl.Cost.total in
      let c2 = (run Core.Mfsa.No_self_loop).Core.Mfsa.cost.Rtl.Cost.total in
      let overhead = (c2 -. c1) /. c1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.1f%% in [-10%%, +20%%]" name (100. *. overhead))
        true
        (overhead >= -0.10 && overhead <= 0.20))
    (Workloads.Classic.all ())

let speed_ordering () =
  (* The §1 claim as an executable assertion: MFS beats FDS and annealing
     by a wide margin on EWF. Generous factors keep this robust on slow
     machines while still catching order-of-magnitude regressions. *)
  let g = Workloads.Classic.ewf () in
  let time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let t_mfs =
    time (fun () ->
        for _ = 1 to 5 do
          ignore (Helpers.check_ok "mfs" (Core.Mfs.schedule g (Core.Mfs.Time { cs = 18 })))
        done)
  in
  let t_fds =
    time (fun () -> ignore (Helpers.check_ok "fds" (Baselines.Fds.run g ~cs:18)))
  in
  (* 5 MFS runs vs 1 FDS run: MFS must still win comfortably. *)
  Alcotest.(check bool)
    (Printf.sprintf "5x MFS (%.1fms) faster than 1x FDS (%.1fms)"
       (t_mfs *. 1e3) (t_fds *. 1e3))
    true (t_mfs < t_fds)

let mfsa_cost_calibration () =
  (* The NCR-like calibration: diffeq at T=4 lands in the paper's cost
     magnitude (tens of thousands of um2), not off by an order. *)
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let o = Helpers.check_ok "mfsa" (Core.Mfsa.run ~library:lib ~cs:4 g) in
  let total = o.Core.Mfsa.cost.Rtl.Cost.total in
  Alcotest.(check bool)
    (Printf.sprintf "diffeq cost %.0f in [20k, 90k]" total)
    true
    (total >= 20_000. && total <= 90_000.);
  Alcotest.(check int) "diffeq registers (paper: 8)" 8
    o.Core.Mfsa.cost.Rtl.Cost.n_regs

let suite =
  [
    test "Table 1 ex1 row shapes" table1_ex1;
    test "Table 1 ex2 chaining rows" table1_ex2;
    test "Table 1 ex4 FIR sweep" table1_ex4;
    test "Table 1 ex6 EWF operating points" table1_ex6;
    test "Table 2 style-overhead band" table2_style_band;
    test "runtime ordering (paper section 1)" speed_ordering;
    test "MFSA cost calibration" mfsa_cost_calibration;
  ]
