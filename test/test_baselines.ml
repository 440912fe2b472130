let test name f = Alcotest.test_case name `Quick f

let priority_is_critical_path () =
  let g = Helpers.chain4 () in
  let prio = Baselines.List_sched.priority Core.Config.default g in
  Alcotest.(check int) "head of chain" 4 (prio 0);
  Alcotest.(check int) "tail of chain" 1 (prio 3)

let list_rc_respects_limits () =
  let g = Workloads.Classic.diffeq () in
  let limits = [ ("*", 1); ("+", 1); ("-", 1); ("<", 1) ] in
  let s = Helpers.check_ok "list rc" (Baselines.List_sched.resource g ~limits) in
  Helpers.check_schedule s;
  List.iter
    (fun (c, u) ->
      Alcotest.(check bool) (c ^ " within limit") true (Helpers.fu_count s c <= u))
    limits;
  Alcotest.(check int) "serial multiplier makespan" 7 (Core.Schedule.makespan s)

let list_rc_bad_limits () =
  let g = Workloads.Classic.diffeq () in
  ignore
    (Helpers.check_err "zero units"
       (Baselines.List_sched.resource g ~limits:[ ("*", 0) ]))

let list_time_meets_budget () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let s = Helpers.check_ok (name ^ " list tc") (Baselines.List_sched.time g ~cs) in
      Helpers.check_schedule s;
      Alcotest.(check bool) (name ^ " within budget") true
        (Core.Schedule.makespan s <= cs))
    (Workloads.Classic.all ())

let fds_valid_on_classics () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let s = Helpers.check_ok (name ^ " fds") (Baselines.Fds.run g ~cs) in
      Helpers.check_schedule s;
      Alcotest.(check bool) (name ^ " within budget") true
        (Core.Schedule.makespan s <= cs))
    (Workloads.Classic.all ())

let fds_balances_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let s = Helpers.check_ok "fds" (Baselines.Fds.run g ~cs:4) in
  (* FDS's flagship result: two multipliers on diffeq at T=4. *)
  Alcotest.(check int) "two multipliers" 2 (Helpers.fu_count s "*")

let fds_distribution () =
  let g = Helpers.diamond () in
  let b = Helpers.check_ok "bounds" (Dfg.Bounds.compute g ~cs:3) in
  let dg = Baselines.Fds.distribution Core.Config.default g b "*" in
  (* Two mults, frames {1,2} each: DG(1) = DG(2) = 1.0. *)
  Alcotest.(check (float 1e-9)) "step 1 load" 1.0 dg.(1);
  Alcotest.(check (float 1e-9)) "step 2 load" 1.0 dg.(2);
  let sum = Array.fold_left ( +. ) 0. dg in
  Alcotest.(check (float 1e-9)) "total mass = op count" 2.0 sum

let annealing_valid_and_deterministic () =
  let g = Workloads.Classic.ar_filter () in
  let cs = Dfg.Bounds.critical_path g + 2 in
  let s1 = Helpers.check_ok "sa" (Baselines.Annealing.run g ~cs) in
  let s2 = Helpers.check_ok "sa" (Baselines.Annealing.run g ~cs) in
  Helpers.check_schedule s1;
  Alcotest.(check bool) "deterministic" true
    (s1.Core.Schedule.start = s2.Core.Schedule.start)

let annealing_improves_on_asap () =
  let g = Workloads.Classic.ewf () in
  let cs = Dfg.Bounds.critical_path g + 2 in
  let cfg = Core.Config.default in
  let b = Helpers.check_ok "bounds" (Dfg.Bounds.compute g ~cs) in
  let asap_cost =
    Baselines.Annealing.cost cfg g ~start:b.Dfg.Bounds.asap ~cs
  in
  let s = Helpers.check_ok "sa" (Baselines.Annealing.run g ~cs) in
  let sa_cost = Baselines.Annealing.cost cfg g ~start:s.Core.Schedule.start ~cs in
  Alcotest.(check bool) "no worse than ASAP" true (sa_cost <= asap_cost)

let mfs_never_beaten_on_classics () =
  (* The paper's claim is speed at equal quality; check MFS's unit totals
     are never worse than list scheduling's. *)
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let total s =
        List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)
      in
      let mfs = (Helpers.mfs_time g cs).Core.Mfs.schedule in
      let lst = Helpers.check_ok "list" (Baselines.List_sched.time g ~cs) in
      Alcotest.(check bool)
        (name ^ ": MFS <= list scheduling units")
        true
        (total mfs <= total lst))
    (Workloads.Classic.all ())

let colbind_valid_random =
  Helpers.qcheck ~count:60 "column binding yields valid schedules"
    (Helpers.dag_gen ())
    (fun g ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      match Baselines.List_sched.time g ~cs with
      | Error _ -> false
      | Ok s -> Core.Schedule.check_diags s = [])

let rc_random_within_limits =
  Helpers.qcheck ~count:60 "list RC respects limits on random DAGs"
    (Helpers.dag_gen ())
    (fun g ->
      let limits = List.map (fun (c, _) -> (c, 2)) (Dfg.Graph.count_by_class g) in
      match Baselines.List_sched.resource g ~limits with
      | Error _ -> false
      | Ok s ->
          Core.Schedule.check_diags s = []
          && List.for_all (fun (c, u) -> Helpers.fu_count s c <= u) limits)

let suite =
  [
    test "priority is the critical-path length" priority_is_critical_path;
    test "list RC respects limits" list_rc_respects_limits;
    test "list RC rejects zero units" list_rc_bad_limits;
    test "list TC meets budgets" list_time_meets_budget;
    test "FDS valid on classics" fds_valid_on_classics;
    test "FDS balances diffeq to 2 multipliers" fds_balances_diffeq;
    test "FDS distribution graphs" fds_distribution;
    test "annealing valid and deterministic" annealing_valid_and_deterministic;
    test "annealing no worse than ASAP" annealing_improves_on_asap;
    test "MFS units never worse than list scheduling" mfs_never_beaten_on_classics;
    colbind_valid_random;
    rc_random_within_limits;
  ]
