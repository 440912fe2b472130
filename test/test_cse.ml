let test name f = Alcotest.test_case name `Quick f
let op = Helpers.op

let diffeq_duplicate_removed () =
  (* HAL's diff-eq computes u*dx twice (m2 and m6). *)
  let g = Workloads.Classic.diffeq () in
  Alcotest.(check int) "one saving" 1 (Dfg.Cse.savings g);
  let g' = Helpers.check_ok "cse" (Dfg.Cse.run g) in
  Alcotest.(check int) "10 ops left" 10 (Dfg.Graph.num_nodes g');
  (* Consumers of the removed duplicate read the kept node. *)
  let a2 = Option.get (Dfg.Graph.find g' "a2") in
  Alcotest.(check (list string)) "a2 rewired" [ "y"; "m2" ] a2.Dfg.Graph.args

let commutative_duplicates () =
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        op "x" Dfg.Op.Add [ "a"; "b" ];
        op "y" Dfg.Op.Add [ "b"; "a" ];
        op "z" Dfg.Op.Mul [ "x"; "y" ];
      ]
  in
  let g' = Helpers.check_ok "cse" (Dfg.Cse.run g) in
  Alcotest.(check int) "add merged" 2 (Dfg.Graph.num_nodes g');
  let z = Option.get (Dfg.Graph.find g' "z") in
  Alcotest.(check (list string)) "z squares x" [ "x"; "x" ] z.Dfg.Graph.args

let noncommutative_kept () =
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [ op "x" Dfg.Op.Sub [ "a"; "b" ]; op "y" Dfg.Op.Sub [ "b"; "a" ] ]
  in
  Alcotest.(check int) "no savings" 0 (Dfg.Cse.savings g)

let guard_contexts_respected () =
  (* Same computation under different guards must NOT merge (that is
     Mutex.merge_shared's job, with different semantics). *)
  let g = Workloads.Classic.cond_example () in
  let g' = Helpers.check_ok "cse" (Dfg.Cse.run g) in
  Alcotest.(check int) "t1/t2 survive CSE" (Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes g')

let chains_collapse () =
  (* x2 duplicates x1; y2 consumes x2 and duplicates y1 after rewiring. *)
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        op "x1" Dfg.Op.Add [ "a"; "b" ];
        op "x2" Dfg.Op.Add [ "a"; "b" ];
        op "y1" Dfg.Op.Mul [ "x1"; "a" ];
        op "y2" Dfg.Op.Mul [ "x2"; "a" ];
        op "z" Dfg.Op.Sub [ "y1"; "y2" ];
      ]
  in
  let g' = Helpers.check_ok "cse" (Dfg.Cse.run g) in
  Alcotest.(check int) "fixpoint collapses the chain" 3 (Dfg.Graph.num_nodes g')

let semantics_preserved =
  Helpers.qcheck ~count:60 "CSE preserves every surviving value"
    (Helpers.dag_gen ())
    (fun g ->
      match Dfg.Cse.run g with
      | Error _ -> false
      | Ok g' -> (
          let env = List.mapi (fun i v -> (v, (i * 13 mod 17) - 8)) (Dfg.Graph.inputs g) in
          match (Sim.Eval.run g env, Sim.Eval.run g' env) with
          | Ok v1, Ok v2 ->
              List.for_all
                (fun nd ->
                  Sim.Eval.value v2 nd.Dfg.Graph.name
                  = Sim.Eval.value v1 nd.Dfg.Graph.name)
                (Dfg.Graph.nodes g')
          | _ -> false))

let idempotent =
  Helpers.qcheck ~count:60 "CSE is idempotent"
    (Helpers.dag_gen ())
    (fun g ->
      match Dfg.Cse.run g with
      | Error _ -> false
      | Ok g' -> Dfg.Cse.savings g' = 0)

let frontend_then_cse () =
  (* The front end does not CSE; the pass catches the duplicated u*dx. *)
  let src = "input u, dx, y;\na = u * dx + y;\nb = u * dx - y;\n" in
  let g = Helpers.check_ok "compile" (Dfg.Frontend.compile src) in
  Alcotest.(check int) "one duplicate" 1 (Dfg.Cse.savings g)

let suite =
  [
    test "diffeq's duplicate u*dx removed" diffeq_duplicate_removed;
    test "commutative duplicates merge" commutative_duplicates;
    test "non-commutative order respected" noncommutative_kept;
    test "guard contexts respected" guard_contexts_respected;
    test "duplicate chains collapse at the fixpoint" chains_collapse;
    semantics_preserved;
    idempotent;
    test "front-end output benefits from CSE" frontend_then_cse;
  ]
