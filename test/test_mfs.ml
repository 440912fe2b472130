let test name f = Alcotest.test_case name `Quick f

let diffeq_known_optimum () =
  let g = Workloads.Classic.diffeq () in
  let o = Helpers.mfs_time g 4 in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* The HAL literature result: 2 multipliers, 1 adder, 1 subtractor, 1
     comparator in 4 control steps. *)
  Alcotest.(check int) "multipliers" 2 (Helpers.fu_count o.Core.Mfs.schedule "*");
  Alcotest.(check int) "adders" 1 (Helpers.fu_count o.Core.Mfs.schedule "+");
  Alcotest.(check int) "subtractors" 1 (Helpers.fu_count o.Core.Mfs.schedule "-");
  Alcotest.(check int) "comparators" 1 (Helpers.fu_count o.Core.Mfs.schedule "<")

let diffeq_relaxed () =
  (* 6 multiplications with dependencies need one multiplier from T=7 on. *)
  let g = Workloads.Classic.diffeq () in
  let o = Helpers.mfs_time g 7 in
  Alcotest.(check int) "one multiplier at T=7" 1
    (Helpers.fu_count o.Core.Mfs.schedule "*")

let tseng_shapes () =
  let g = Workloads.Classic.tseng () in
  let at4 = Helpers.mfs_time g 4 in
  let at5 = Helpers.mfs_time g 5 in
  Alcotest.(check int) "T=4 needs two adders" 2
    (Helpers.fu_count at4.Core.Mfs.schedule "+");
  Alcotest.(check int) "T=5 needs one adder" 1
    (Helpers.fu_count at5.Core.Mfs.schedule "+");
  List.iter
    (fun c ->
      Alcotest.(check int) (c ^ " single at T=5") 1
        (Helpers.fu_count at5.Core.Mfs.schedule c))
    [ "*"; "-"; "&"; "|"; "=" ]

let classics_valid_across_budgets () =
  List.iter
    (fun (name, g) ->
      let cp = Dfg.Bounds.critical_path g in
      List.iter
        (fun extra ->
          let o = Helpers.mfs_time g (cp + extra) in
          Helpers.check_schedule o.Core.Mfs.schedule;
          Alcotest.(check bool)
            (Printf.sprintf "%s cp+%d trace monotone" name extra)
            true
            (Core.Liapunov.Trace.non_increasing o.Core.Mfs.trace))
        [ 0; 1; 2; 3 ])
    (Workloads.Classic.all ())

let fu_counts_decrease_with_budget () =
  List.iter
    (fun (name, g) ->
      let cp = Dfg.Bounds.critical_path g in
      let total s =
        List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)
      in
      let tight = Helpers.mfs_time g cp in
      let loose = Helpers.mfs_time g (cp + 6) in
      Alcotest.(check bool)
        (name ^ ": more budget never needs more units")
        true
        (total loose.Core.Mfs.schedule <= total tight.Core.Mfs.schedule))
    (Workloads.Classic.all ())

let infeasible_budget () =
  let g = Helpers.chain4 () in
  ignore
    (Helpers.check_err "cs below critical path"
       (Core.Mfs.run g (Core.Mfs.Time { cs = 3 })))

let empty_graph () =
  let g = Helpers.graph_exn ~inputs:[ "a" ] [] in
  ignore (Helpers.check_err "empty" (Core.Mfs.run g (Core.Mfs.Time { cs = 1 })))

let user_limit_respected () =
  let g = Workloads.Classic.diffeq () in
  let o =
    Helpers.check_ok "limited run"
      (Core.Mfs.run ~max_units:[ ("*", 2) ] g (Core.Mfs.Time { cs = 4 }))
  in
  Alcotest.(check bool) "within limit" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" <= 2)

let user_limit_too_tight () =
  let g = Workloads.Classic.diffeq () in
  let msg =
    Diag.message
      (Helpers.check_err "one multiplier at cp"
         (Core.Mfs.run ~max_units:[ ("*", 1) ] g (Core.Mfs.Time { cs = 4 })))
  in
  Alcotest.(check bool) "names the class" true (Helpers.contains ~sub:"*" msg)

let resource_constrained_makespan () =
  let g = Workloads.Classic.diffeq () in
  let limits = [ ("*", 2); ("+", 1); ("-", 1); ("<", 1) ] in
  let o =
    Helpers.check_ok "resource run" (Core.Mfs.run g (Core.Mfs.Resource { limits }))
  in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check int) "critical-path makespan with 2 mults" 4
    (Core.Schedule.makespan o.Core.Mfs.schedule);
  List.iter
    (fun (c, u) ->
      Alcotest.(check bool) (c ^ " within limit") true
        (Helpers.fu_count o.Core.Mfs.schedule c <= u))
    limits

let resource_constrained_single_units () =
  let g = Workloads.Classic.diffeq () in
  let limits = [ ("*", 1); ("+", 1); ("-", 1); ("<", 1) ] in
  let o =
    Helpers.check_ok "resource run" (Core.Mfs.run g (Core.Mfs.Resource { limits }))
  in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* 6 serialized multiplications plus the dependent subtract tail. *)
  Alcotest.(check int) "makespan 7" 7 (Core.Schedule.makespan o.Core.Mfs.schedule)

let multicycle_mult () =
  let config =
    { Core.Config.default with
      Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1) }
  in
  let g = Workloads.Classic.diffeq () in
  let cp = Dfg.Bounds.critical_path ~delays:(Core.Config.delay config) g in
  Alcotest.(check int) "2-cycle critical path" 6 cp;
  let o = Helpers.mfs_time ~config g cp in
  Helpers.check_schedule o.Core.Mfs.schedule

let structural_pipelining_reduces_units () =
  let two_cycle =
    { Core.Config.default with
      Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1) }
  in
  let pipelined =
    { two_cycle with
      Core.Config.pipelined = (function Dfg.Op.Mul -> true | _ -> false) }
  in
  let g = Workloads.Classic.ewf () in
  let cp = Dfg.Bounds.critical_path ~delays:(Core.Config.delay two_cycle) g in
  let plain = Helpers.mfs_time ~config:two_cycle g cp in
  let piped = Helpers.mfs_time ~config:pipelined g cp in
  Helpers.check_schedule plain.Core.Mfs.schedule;
  Helpers.check_schedule piped.Core.Mfs.schedule;
  Alcotest.(check bool) "pipelined units never worse" true
    (Helpers.fu_count piped.Core.Mfs.schedule "*"
    <= Helpers.fu_count plain.Core.Mfs.schedule "*")

let chaining_compresses () =
  let chaining =
    Some
      {
        Core.Config.prop_delay =
          (function Dfg.Op.Add | Dfg.Op.Sub -> 40. | _ -> 10.);
        clock = 100.;
      }
  in
  let config = { Core.Config.default with Core.Config.chaining } in
  let g = Workloads.Classic.chained_sum () in
  let plain_cp = Dfg.Bounds.critical_path g in
  let chained_cp = Core.Timeframe.min_cs config g in
  Alcotest.(check int) "plain depth" 5 plain_cp;
  Alcotest.(check int) "chained depth" 3 chained_cp;
  let o = Helpers.mfs_time ~config g chained_cp in
  Helpers.check_schedule o.Core.Mfs.schedule

let functional_pipelining () =
  let config =
    { Core.Config.default with Core.Config.functional_latency = Some 4 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Dfg.Bounds.critical_path g in
  let o = Helpers.mfs_time ~config g cs in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* 13 mults folded into 4 slots need at least ceil(13/4) = 4 units. *)
  Alcotest.(check bool) "folding floor respected" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" >= 4)

let mutex_sharing_saves_units () =
  let g = Workloads.Classic.cond_example () in
  let cp = Dfg.Bounds.critical_path g in
  let share = Helpers.mfs_time g cp in
  let noshare =
    Helpers.mfs_time
      ~config:{ Core.Config.default with Core.Config.share_mutex = false }
      g cp
  in
  Helpers.check_schedule share.Core.Mfs.schedule;
  Helpers.check_schedule noshare.Core.Mfs.schedule;
  let total s =
    List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)
  in
  Alcotest.(check bool) "sharing never needs more units" true
    (total share.Core.Mfs.schedule <= total noshare.Core.Mfs.schedule)

let restarts_reported () =
  (* A graph engineered to underestimate ceil(N/cs): 3 mults that must all
     run in step 1 of a 3-step budget; current starts at 1, so local
     rescheduling must grow it twice. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "m1" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "m2" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "m3" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "a1" Dfg.Op.Add [ "m1"; "m2" ];
        Helpers.op "a2" Dfg.Op.Add [ "a1"; "m3" ];
      ]
  in
  let o = Helpers.mfs_time g 3 in
  Helpers.check_schedule o.Core.Mfs.schedule;
  Alcotest.(check bool) "local reschedulings happened" true
    (o.Core.Mfs.restarts > 0);
  (* m1/m2 must share step 1 (ALAP 1); m3 slips to step 2 on a reused unit. *)
  Alcotest.(check int) "two multipliers" 2
    (Helpers.fu_count o.Core.Mfs.schedule "*")

(* Exhaustive reference: minimum total units over every precedence-feasible
   start assignment within the ASAP/ALAP frames. Only tractable for tiny
   graphs, where it pins down MFS's optimality gap. *)
let brute_force_min_units g ~cs =
  let b =
    match Dfg.Bounds.compute g ~cs with
    | Ok b -> b
    | Error e -> Alcotest.fail (Diag.to_string e)
  in
  let n = Dfg.Graph.num_nodes g in
  let order = Dfg.Graph.topological g in
  let start = Array.make n 0 in
  let best = ref max_int in
  let total_units () =
    List.fold_left (fun acc (_, k) -> acc + k) 0
      (Dfg.Bounds.concurrency g ~start ~cs)
  in
  let rec assign = function
    | [] -> best := min !best (total_units ())
    | i :: rest ->
        let ready =
          List.fold_left
            (fun acc p -> max acc (start.(p) + 1))
            b.Dfg.Bounds.asap.(i) (Dfg.Graph.preds g i)
        in
        for s = ready to b.Dfg.Bounds.alap.(i) do
          start.(i) <- s;
          assign rest
        done
  in
  assign order;
  !best

let near_optimal_on_tiny_graphs () =
  List.iter
    (fun seed ->
      let g =
        Workloads.Random_dag.generate_exn
          ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops = 6 }
          ~seed ()
      in
      let cs = Dfg.Bounds.critical_path g + 1 in
      let optimum = brute_force_min_units g ~cs in
      let o = Helpers.mfs_time g cs in
      let total =
        List.fold_left (fun acc (_, k) -> acc + k) 0
          (Core.Schedule.fu_counts o.Core.Mfs.schedule)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: MFS %d vs optimum %d" seed total optimum)
        true
        (total <= optimum + 1))
    (List.init 25 (fun i -> i * 37))

let exactly_optimal_on_classics () =
  (* Known optima at the critical path: diffeq 5 units, tseng 7 units. *)
  let check name g cs expected =
    let o = Helpers.mfs_time g cs in
    let total =
      List.fold_left (fun acc (_, k) -> acc + k) 0
        (Core.Schedule.fu_counts o.Core.Mfs.schedule)
    in
    Alcotest.(check int) name expected total
  in
  check "diffeq T=4" (Workloads.Classic.diffeq ()) 4 5;
  check "tseng T=5" (Workloads.Classic.tseng ()) 5 6

let random_dags_valid =
  Helpers.qcheck ~count:80 "MFS schedules random DAGs validly"
    (Helpers.dag_gen ~max_ops:30 ())
    (fun g ->
      let cp = Dfg.Bounds.critical_path g in
      match Core.Mfs.run g (Core.Mfs.Time { cs = cp + 1 }) with
      | Error _ -> false
      | Ok o ->
          Core.Schedule.check_diags o.Core.Mfs.schedule = []
          && Core.Liapunov.Trace.non_increasing o.Core.Mfs.trace
          && Core.Liapunov.Trace.positive o.Core.Mfs.trace)

let random_multicycle_valid =
  Helpers.qcheck ~count:50 "MFS handles 2-cycle mult/div on random DAGs"
    (Helpers.wide_dag_gen ~max_ops:24 ())
    (fun g ->
      let config =
        { Core.Config.default with
          Core.Config.delays =
            (function Dfg.Op.Mul | Dfg.Op.Div -> 2 | _ -> 1) }
      in
      let cp = Dfg.Bounds.critical_path ~delays:(Core.Config.delay config) g in
      match Core.Mfs.run ~config g (Core.Mfs.Time { cs = cp + 1 }) with
      | Error _ -> false
      | Ok o -> Core.Schedule.check_diags o.Core.Mfs.schedule = [])

let random_chained_valid =
  Helpers.qcheck ~count:50 "MFS handles chaining on random DAGs"
    (Helpers.dag_gen ~max_ops:20 ())
    (fun g ->
      let config =
        { Core.Config.default with
          Core.Config.chaining =
            Some
              { Core.Config.prop_delay =
                  Celllib.Ncr.default.Celllib.Library.prop_delay;
                clock = 100. } }
      in
      let cs = Core.Timeframe.min_cs config g in
      match Core.Mfs.run ~config g (Core.Mfs.Time { cs }) with
      | Error _ -> false
      | Ok o -> Core.Schedule.check_diags o.Core.Mfs.schedule = [])

let random_resource_valid =
  Helpers.qcheck ~count:50 "resource-constrained MFS respects limits"
    (Helpers.dag_gen ~max_ops:24 ())
    (fun g ->
      let limits = List.map (fun (c, _) -> (c, 2)) (Dfg.Graph.count_by_class g) in
      match Core.Mfs.run g (Core.Mfs.Resource { limits }) with
      | Error _ -> false
      | Ok o ->
          Core.Schedule.check_diags o.Core.Mfs.schedule = []
          && List.for_all
               (fun (c, u) ->
                 Option.value ~default:0
                   (List.assoc_opt c (Core.Schedule.fu_counts o.Core.Mfs.schedule))
                 <= u)
               limits)

let suite =
  [
    test "diffeq T=4 matches the known optimum" diffeq_known_optimum;
    test "diffeq T=7 reaches one multiplier" diffeq_relaxed;
    test "tseng matches Table 1 row shapes" tseng_shapes;
    test "classics valid across budgets" classics_valid_across_budgets;
    test "more budget never needs more units" fu_counts_decrease_with_budget;
    test "infeasible budget rejected" infeasible_budget;
    test "empty graph rejected" empty_graph;
    test "user unit limit respected" user_limit_respected;
    test "impossible unit limit reported" user_limit_too_tight;
    test "resource-constrained minimises steps" resource_constrained_makespan;
    test "single-unit resource schedule" resource_constrained_single_units;
    test "multi-cycle multiplication" multicycle_mult;
    test "structural pipelining reduces multipliers" structural_pipelining_reduces_units;
    test "chaining compresses the schedule" chaining_compresses;
    test "functional pipelining folds resources" functional_pipelining;
    test "mutual exclusion saves units" mutex_sharing_saves_units;
    test "local rescheduling grows unit counts" restarts_reported;
    test "near-optimal vs brute force on tiny graphs" near_optimal_on_tiny_graphs;
    test "known optima on the classics" exactly_optimal_on_classics;
    random_dags_valid;
    random_multicycle_valid;
    random_chained_valid;
    random_resource_valid;
  ]
