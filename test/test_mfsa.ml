let test name f = Alcotest.test_case name `Quick f

let run ?config ?style ?weights ?lib g cs =
  let library = match lib with Some l -> l | None -> Celllib.Ncr.for_graph g in
  let config =
    match config with Some c -> c | None -> Core.Config.of_library library
  in
  Helpers.check_okd "MFSA" (Core.Mfsa.run ~config ?style ?weights ~library ~cs g)

let validate o =
  Helpers.check_schedule o.Core.Mfsa.schedule;
  let g = o.Core.Mfsa.schedule.Core.Schedule.graph in
  let delay i =
    Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
      (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  match
    Rtl.Check.datapath
      ~style2:(o.Core.Mfsa.style = Core.Mfsa.No_self_loop)
      o.Core.Mfsa.datapath ~delay
  with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "datapath invalid: %s" (String.concat "; " (List.map Diag.to_string errs))

let classics_synthesise () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let o = run g cs in
      validate o;
      Alcotest.(check bool) (name ^ " cost positive") true
        (o.Core.Mfsa.cost.Rtl.Cost.total > 0.))
    (Workloads.Classic.all ())

let energy_is_minimal_choice () =
  let g = Workloads.Classic.diffeq () in
  let o = run g 4 in
  List.iter
    (fun it ->
      Alcotest.(check bool) "chosen <= worst candidate" true
        (it.Core.Mfsa.it_energy <= it.Core.Mfsa.it_worst +. 1e-9))
    o.Core.Mfsa.iterations;
  Alcotest.(check int) "every op placed once"
    (Dfg.Graph.num_nodes g)
    (List.length o.Core.Mfsa.iterations)

let multifunction_alus_emerge () =
  (* diffeq has subtractions and additions near multiplications; a purely
     single-function allocation would cost more. The widening mechanism
     must produce at least one multifunction ALU. *)
  let g = Workloads.Classic.diffeq () in
  let o = run g 4 in
  let multifunction =
    List.exists
      (fun a ->
        Celllib.Op_set.cardinal a.Rtl.Datapath.a_kind.Celllib.Library.ops > 1)
      o.Core.Mfsa.datapath.Rtl.Datapath.alus
  in
  Alcotest.(check bool) "some multifunction ALU" true multifunction

let style2_no_self_loops () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let o = run ~style:Core.Mfsa.No_self_loop g cs in
      validate o;
      Alcotest.(check (list int)) (name ^ " no self loops") []
        (Rtl.Datapath.self_loop_alus o.Core.Mfsa.datapath))
    (Workloads.Classic.all ())

let style2_costs_more () =
  (* Table 2: style 2 shows a 2-11% overhead over style 1 (one example in
     the paper is 4% the other way; we assert the aggregate direction). *)
  let total_1, total_2 =
    List.fold_left
      (fun (t1, t2) (_, g) ->
        let cs = Dfg.Bounds.critical_path g + 1 in
        let o1 = run g cs in
        let o2 = run ~style:Core.Mfsa.No_self_loop g cs in
        ( t1 +. o1.Core.Mfsa.cost.Rtl.Cost.total,
          t2 +. o2.Core.Mfsa.cost.Rtl.Cost.total ))
      (0., 0.)
      (Workloads.Classic.all ())
  in
  Alcotest.(check bool) "style 2 aggregate overhead positive" true
    (total_2 >= total_1);
  let overhead = (total_2 -. total_1) /. total_1 in
  Alcotest.(check bool) "overhead below 25%" true (overhead < 0.25)

let weights_shift_optimisation () =
  let g = Workloads.Classic.ewf () in
  let cs = Dfg.Bounds.critical_path g + 2 in
  let balanced = run g cs in
  let reg_heavy =
    run
      ~weights:{ Core.Mfsa.equal_weights with Core.Mfsa.w_reg = 50. }
      g cs
  in
  validate reg_heavy;
  Alcotest.(check bool) "register emphasis does not increase registers" true
    (reg_heavy.Core.Mfsa.cost.Rtl.Cost.n_regs
    <= balanced.Core.Mfsa.cost.Rtl.Cost.n_regs)

let restricted_library_missing_kind () =
  let g = Workloads.Classic.diffeq () in
  let lib =
    Celllib.Library.restrict (Celllib.Ncr.for_graph g)
      [ Dfg.Op.Add; Dfg.Op.Sub ]
  in
  let msg =
    Diag.message
      (Helpers.check_errd "no multiplier in library"
         (Core.Mfsa.run ~library:lib ~cs:4 g))
  in
  Alcotest.(check bool) "names the op kind" true (Helpers.contains ~sub:"mul" msg)

let restricted_library_shapes_alus () =
  (* Restrict to single-function units only: no multifunction ALU can
     appear. *)
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let singles =
    { lib with
      Celllib.Library.alus =
        List.filter
          (fun a -> Celllib.Op_set.cardinal a.Celllib.Library.ops = 1)
          lib.Celllib.Library.alus }
  in
  let o = run ~lib:singles g 4 in
  validate o;
  List.iter
    (fun a ->
      Alcotest.(check int) "single function" 1
        (Celllib.Op_set.cardinal a.Rtl.Datapath.a_kind.Celllib.Library.ops))
    o.Core.Mfsa.datapath.Rtl.Datapath.alus

let infeasible_budget () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  ignore (Helpers.check_errd "cs=2" (Core.Mfsa.run ~library:lib ~cs:2 g))

let empty_graph () =
  let g = Helpers.graph_exn ~inputs:[ "a" ] [] in
  let lib = Celllib.Ncr.default in
  ignore (Helpers.check_errd "empty" (Core.Mfsa.run ~library:lib ~cs:1 g))

let two_cycle_multiplier () =
  let g = Workloads.Classic.dct8 () in
  let lib = Celllib.Ncr.two_cycle_multiplier (Celllib.Ncr.for_graph g) in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g in
  let o = run ~config ~lib g cs in
  validate o

let pipelined_multiplier () =
  let g = Workloads.Classic.dct8 () in
  let lib = Celllib.Ncr.pipelined_multiplier (Celllib.Ncr.for_graph g) in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g in
  let o = run ~config ~lib g cs in
  validate o;
  (* The pipelined library must never need more multiplier instances than
     the two-cycle one. *)
  let lib2 = Celllib.Ncr.two_cycle_multiplier (Celllib.Ncr.for_graph g) in
  let o2 = run ~config:(Core.Config.of_library lib2) ~lib:lib2 g cs in
  let mult_instances o =
    List.length
      (List.filter
         (fun a ->
           Celllib.Op_set.mem Dfg.Op.Mul a.Rtl.Datapath.a_kind.Celllib.Library.ops)
         o.Core.Mfsa.datapath.Rtl.Datapath.alus)
  in
  Alcotest.(check bool) "pipelined needs <= instances" true
    (mult_instances o <= mult_instances o2)

let mutex_ops_share_alu () =
  let g = Workloads.Classic.cond_example () in
  let o = run g (Dfg.Bounds.critical_path g) in
  validate o

let equivalence_on_classics () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let o = run g cs in
      let delay i =
        Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
          (Dfg.Graph.node g i).Dfg.Graph.kind
      in
      let ctrl =
        Helpers.check_ok "controller"
          (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay)
      in
      match Sim.Equiv.check_random ~runs:10 o.Core.Mfsa.datapath ctrl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name (Diag.to_string e))
    (Workloads.Classic.all ())

let functional_pipelining_allocation () =
  (* Folding with latency L: the allocated ALUs must absorb the modulo
     conflicts, and the datapath still checks out. *)
  let g = Workloads.Classic.ar_filter () in
  let lib = Celllib.Ncr.for_graph g in
  let config =
    { (Core.Config.of_library lib) with Core.Config.functional_latency = Some 5 }
  in
  let cs = Dfg.Bounds.critical_path g in
  let o =
    Helpers.check_okd "folded mfsa" (Core.Mfsa.run ~config ~library:lib ~cs g)
  in
  Helpers.check_schedule o.Core.Mfsa.schedule;
  (* 13 multiplications folded into 5 slots need >= 3 mult-capable ALUs. *)
  let mult_capable =
    List.length
      (List.filter
         (fun a ->
           Celllib.Op_set.mem Dfg.Op.Mul a.Rtl.Datapath.a_kind.Celllib.Library.ops)
         o.Core.Mfsa.datapath.Rtl.Datapath.alus)
  in
  Alcotest.(check bool) "folding floor respected" true (mult_capable >= 3)

let resource_mode_minimises_steps () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let one_mult =
    Helpers.check_okd "1 mult"
      (Core.Mfsa.run_resource ~library:lib ~limits:[ ("*", 1) ] g)
  in
  validate one_mult;
  (* Six serialised multiplications with the dependent tail: 7 steps. *)
  Alcotest.(check int) "makespan 7" 7
    (Core.Schedule.makespan one_mult.Core.Mfsa.schedule);
  let two_mult =
    Helpers.check_okd "2 mult"
      (Core.Mfsa.run_resource ~library:lib ~limits:[ ("*", 2) ] g)
  in
  Alcotest.(check int) "makespan 4" 4
    (Core.Schedule.makespan two_mult.Core.Mfsa.schedule)

let resource_mode_respects_caps () =
  let g = Workloads.Classic.ewf () in
  let lib = Celllib.Ncr.for_graph g in
  let limits = [ ("*", 1); ("+", 2) ] in
  let o =
    Helpers.check_okd "resource" (Core.Mfsa.run_resource ~library:lib ~limits g)
  in
  validate o;
  List.iter
    (fun (c, cap) ->
      let kind = Option.get (Dfg.Op.of_string c) in
      let capable =
        List.length
          (List.filter
             (fun a ->
               Celllib.Op_set.mem kind a.Rtl.Datapath.a_kind.Celllib.Library.ops)
             o.Core.Mfsa.datapath.Rtl.Datapath.alus)
      in
      Alcotest.(check bool) (c ^ " capable instances within cap") true
        (capable <= cap))
    limits

let resource_mode_cheaper_than_time_mode () =
  (* Fewer units should not cost more silicon than the fast design. *)
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let slow =
    Helpers.check_okd "1 mult"
      (Core.Mfsa.run_resource ~library:lib ~limits:[ ("*", 1) ] g)
  in
  let fast = run g 4 in
  Alcotest.(check bool) "serial design is smaller" true
    (slow.Core.Mfsa.cost.Rtl.Cost.total <= fast.Core.Mfsa.cost.Rtl.Cost.total)

let random_dags_synthesise =
  Helpers.qcheck ~count:40 "MFSA synthesises random DAGs validly"
    (Helpers.dag_gen ~max_ops:20 ())
    (fun g ->
      let lib = Celllib.Ncr.for_graph g in
      let cs = Dfg.Bounds.critical_path g + 1 in
      match Core.Mfsa.run ~library:lib ~cs g with
      | Error _ -> false
      | Ok o -> (
          Core.Schedule.check_diags o.Core.Mfsa.schedule = []
          &&
          let delay i =
            Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
              (Dfg.Graph.node g i).Dfg.Graph.kind
          in
          match Rtl.Check.datapath o.Core.Mfsa.datapath ~delay with
          | Ok () -> true
          | Error _ -> false))

let random_dags_equivalent =
  Helpers.qcheck ~count:25 "synthesised random DAGs compute the behaviour"
    (Helpers.dag_gen ~max_ops:16 ())
    (fun g ->
      let lib = Celllib.Ncr.for_graph g in
      let cs = Dfg.Bounds.critical_path g + 1 in
      match Core.Mfsa.run ~library:lib ~cs g with
      | Error _ -> false
      | Ok o -> (
          let delay i =
            Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
              (Dfg.Graph.node g i).Dfg.Graph.kind
          in
          match Rtl.Controller.generate o.Core.Mfsa.datapath ~delay with
          | Error _ -> false
          | Ok ctrl ->
              Sim.Equiv.check_random ~runs:5 o.Core.Mfsa.datapath ctrl = Ok ()))

let suite =
  [
    test "all classics synthesise and validate" classics_synthesise;
    test "Liapunov choice is minimal per iteration" energy_is_minimal_choice;
    test "multifunction ALUs emerge" multifunction_alus_emerge;
    test "style 2 has no ALU self loops" style2_no_self_loops;
    test "style 2 aggregate overhead in band" style2_costs_more;
    test "register weight steers the design" weights_shift_optimisation;
    test "missing capability reported" restricted_library_missing_kind;
    test "restricted library respected" restricted_library_shapes_alus;
    test "infeasible budget rejected" infeasible_budget;
    test "empty graph rejected" empty_graph;
    test "two-cycle multiplier library" two_cycle_multiplier;
    test "pipelined multiplier library" pipelined_multiplier;
    test "exclusive ops share an ALU" mutex_ops_share_alu;
    test "functional pipelining through allocation" functional_pipelining_allocation;
    test "resource mode minimises steps" resource_mode_minimises_steps;
    test "resource mode respects capability caps" resource_mode_respects_caps;
    test "resource mode trades time for area" resource_mode_cheaper_than_time_mode;
    test "synthesised classics compute the behaviour" equivalence_on_classics;
    random_dags_synthesise;
    random_dags_equivalent;
  ]
