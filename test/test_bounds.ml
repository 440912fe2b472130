let test name f = Alcotest.test_case name `Quick f

let diamond_frames () =
  let g = Helpers.diamond () in
  let b = Helpers.check_ok "bounds" (Dfg.Bounds.compute g ~cs:3) in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  Alcotest.(check int) "m1 asap" 1 b.Dfg.Bounds.asap.(id "m1");
  Alcotest.(check int) "m1 alap" 2 b.Dfg.Bounds.alap.(id "m1");
  Alcotest.(check int) "s asap" 2 b.Dfg.Bounds.asap.(id "s");
  Alcotest.(check int) "s alap" 3 b.Dfg.Bounds.alap.(id "s");
  Alcotest.(check int) "m1 mobility" 1 (Dfg.Bounds.mobility b (id "m1"))

let critical_paths () =
  Alcotest.(check int) "diamond" 2 (Dfg.Bounds.critical_path (Helpers.diamond ()));
  Alcotest.(check int) "chain4" 4 (Dfg.Bounds.critical_path (Helpers.chain4 ()));
  Alcotest.(check int) "diffeq" 4
    (Dfg.Bounds.critical_path (Workloads.Classic.diffeq ()));
  Alcotest.(check int) "ewf" 13
    (Dfg.Bounds.critical_path (Workloads.Classic.ewf ()))

let multicycle_critical_path () =
  let delays = function Dfg.Op.Mul -> 2 | _ -> 1 in
  Alcotest.(check int) "diamond with 2-cycle mult" 3
    (Dfg.Bounds.critical_path ~delays (Helpers.diamond ()));
  Alcotest.(check int) "diffeq with 2-cycle mult" 6
    (Dfg.Bounds.critical_path ~delays (Workloads.Classic.diffeq ()))

let infeasible_budget () =
  let msg =
    Helpers.check_err "cs below critical path"
      (Dfg.Bounds.compute (Helpers.chain4 ()) ~cs:3)
  in
  Alcotest.(check bool) "mentions critical path" true
    (Helpers.contains ~sub:"critical path" (Diag.message msg))

let zero_budget () =
  ignore (Helpers.check_err "cs=0" (Dfg.Bounds.compute (Helpers.diamond ()) ~cs:0))

let concurrency_profile () =
  let g = Helpers.diamond () in
  let b = Helpers.check_ok "bounds" (Dfg.Bounds.compute g ~cs:2) in
  let conc = Dfg.Bounds.concurrency g ~start:b.Dfg.Bounds.asap ~cs:2 in
  Alcotest.(check (option int)) "two mults at step 1" (Some 2)
    (List.assoc_opt "*" conc);
  Alcotest.(check (option int)) "one add" (Some 1) (List.assoc_opt "+" conc)

let multicycle_concurrency () =
  (* Two 2-cycle mults starting at steps 1 and 2 overlap at step 2. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "m1" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "m2" Dfg.Op.Mul [ "a"; "b" ];
      ]
  in
  let delays = function Dfg.Op.Mul -> 2 | _ -> 1 in
  let conc =
    Dfg.Bounds.concurrency ~delays g ~start:[| 1; 2 |] ~cs:3
  in
  Alcotest.(check (option int)) "overlap counted" (Some 2)
    (List.assoc_opt "*" conc)

let prop_delay = function
  | Dfg.Op.Add | Dfg.Op.Sub -> 40.
  | Dfg.Op.Mul -> 80.
  | _ -> 10.

let chained_pairs () =
  (* chain4 with clock 100: two 40ns adds chain per step -> 2 steps. *)
  let g = Helpers.chain4 () in
  let cp =
    Helpers.check_ok "chained cp"
      (Dfg.Bounds.chained_critical_path ~prop_delay ~clock:100. g)
  in
  Alcotest.(check int) "two per step" 2 cp;
  let cp3 =
    Helpers.check_ok "chained cp wide clock"
      (Dfg.Bounds.chained_critical_path ~prop_delay ~clock:160. g)
  in
  Alcotest.(check int) "four per step" 1 cp3

let chaining_without_slack () =
  (* Clock fitting exactly one add: chaining degenerates to plain ASAP. *)
  let g = Helpers.chain4 () in
  let cp =
    Helpers.check_ok "tight clock"
      (Dfg.Bounds.chained_critical_path ~prop_delay ~clock:45. g)
  in
  Alcotest.(check int) "no chaining possible" 4 cp

let op_slower_than_clock () =
  let g = Helpers.diamond () in
  let msg =
    Helpers.check_err "mult slower than clock"
      (Dfg.Bounds.chained_critical_path ~prop_delay ~clock:50. g)
  in
  Alcotest.(check bool) "names the op" true (Helpers.contains ~sub:"m" (Diag.message msg))

let chained_bounds_feasible () =
  let g = Workloads.Classic.chained_sum () in
  let ch =
    Helpers.check_ok "chained bounds"
      (Dfg.Bounds.compute_chained ~prop_delay ~clock:100. g ~cs:4)
  in
  Array.iteri
    (fun i (a, _) ->
      let l, _ = ch.Dfg.Bounds.ch_alap.(i) in
      Alcotest.(check bool) "asap <= alap" true (a <= l))
    ch.Dfg.Bounds.ch_asap

let frames_valid_on_random =
  Helpers.qcheck ~count:60 "asap <= alap within critical-path budget"
    (Helpers.dag_gen ())
    (fun g ->
      let cs = Dfg.Bounds.critical_path g in
      match Dfg.Bounds.compute g ~cs with
      | Error _ -> false
      | Ok b ->
          List.for_all
            (fun nd ->
              let i = nd.Dfg.Graph.id in
              b.Dfg.Bounds.asap.(i) <= b.Dfg.Bounds.alap.(i))
            (Dfg.Graph.nodes g))

let mobility_grows_with_budget =
  Helpers.qcheck ~count:60 "mobility weakly grows with the budget"
    (Helpers.dag_gen ())
    (fun g ->
      let cs = Dfg.Bounds.critical_path g in
      match (Dfg.Bounds.compute g ~cs, Dfg.Bounds.compute g ~cs:(cs + 3)) with
      | Ok b1, Ok b2 ->
          List.for_all
            (fun nd ->
              Dfg.Bounds.mobility b1 nd.Dfg.Graph.id
              <= Dfg.Bounds.mobility b2 nd.Dfg.Graph.id)
            (Dfg.Graph.nodes g)
      | _ -> false)

let suite =
  [
    test "diamond time frames" diamond_frames;
    test "critical paths of known graphs" critical_paths;
    test "multi-cycle critical path" multicycle_critical_path;
    test "infeasible budget reported" infeasible_budget;
    test "zero budget rejected" zero_budget;
    test "concurrency profile" concurrency_profile;
    test "multi-cycle ops overlap in concurrency" multicycle_concurrency;
    test "chaining packs two adds per step" chained_pairs;
    test "tight clock disables chaining" chaining_without_slack;
    test "op slower than clock rejected" op_slower_than_clock;
    test "chained frames are consistent" chained_bounds_feasible;
    frames_valid_on_random;
    mobility_grows_with_budget;
  ]
