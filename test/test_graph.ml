let test name f = Alcotest.test_case name `Quick f
let op = Helpers.op

let build_ok () =
  let g = Helpers.diamond () in
  Alcotest.(check int) "nodes" 3 (Dfg.Graph.num_nodes g);
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c"; "d" ]
    (Dfg.Graph.inputs g)

let duplicate_name () =
  let r =
    Dfg.Graph.of_ops ~inputs:[ "a" ]
      [ op "n" Dfg.Op.Neg [ "a" ]; op "n" Dfg.Op.Neg [ "a" ] ]
  in
  ignore (Helpers.check_err "duplicate node name" r)

let input_clash () =
  let r =
    Dfg.Graph.of_ops ~inputs:[ "a" ] [ op "a" Dfg.Op.Neg [ "a" ] ]
  in
  ignore (Helpers.check_err "node named like input" r)

let unknown_ref () =
  let msg =
    Helpers.check_err "unknown operand"
      (Dfg.Graph.of_ops ~inputs:[ "a" ] [ op "n" Dfg.Op.Add [ "a"; "zz" ] ])
  in
  Alcotest.(check bool) "mentions zz" true (Helpers.contains ~sub:"zz" (Diag.message msg))

let arity_mismatch () =
  ignore
    (Helpers.check_err "too few operands"
       (Dfg.Graph.of_ops ~inputs:[ "a" ] [ op "n" Dfg.Op.Add [ "a" ] ]))

let cycle_detected () =
  let r =
    Dfg.Graph.of_ops ~inputs:[ "a" ]
      [ op "x" Dfg.Op.Add [ "a"; "y" ]; op "y" Dfg.Op.Add [ "x"; "a" ] ]
  in
  let msg = Helpers.check_err "cycle" r in
  Alcotest.(check string) "cycle message" "cycle in DFG" (Diag.message msg)

let self_cycle () =
  ignore
    (Helpers.check_err "self cycle"
       (Dfg.Graph.of_ops ~inputs:[ "a" ] [ op "x" Dfg.Op.Add [ "x"; "a" ] ]))

let unknown_guard () =
  ignore
    (Helpers.check_err "unknown guard"
       (Dfg.Graph.of_ops ~inputs:[ "a" ]
          [ ("n", Dfg.Op.Neg, [ "a" ], [ ("nope", true) ]) ]))

let preds_succs () =
  let g = Helpers.diamond () in
  let s = Option.get (Dfg.Graph.find g "s") in
  let m1 = Option.get (Dfg.Graph.find g "m1") in
  Alcotest.(check (list int)) "preds of s" [ 0; 1 ]
    (Dfg.Graph.preds g s.Dfg.Graph.id);
  Alcotest.(check (list int)) "succs of m1" [ s.Dfg.Graph.id ]
    (Dfg.Graph.succs g m1.Dfg.Graph.id)

let guard_is_pred () =
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        op "c" Dfg.Op.Lt [ "a"; "b" ];
        ("t", Dfg.Op.Add, [ "a"; "b" ], [ ("c", true) ]);
      ]
  in
  let c = Option.get (Dfg.Graph.find g "c") in
  let t = Option.get (Dfg.Graph.find g "t") in
  Alcotest.(check bool) "guard is a predecessor" true
    (List.mem c.Dfg.Graph.id (Dfg.Graph.preds g t.Dfg.Graph.id))

let cross_branch_read_rejected () =
  (* A value defined in one branch consumed in the other (or outside the
     conditional) has no execution under which it is defined. *)
  let mk consumer_guards =
    Dfg.Graph.of_ops ~inputs:[ "a"; "b" ]
      [
        op "c" Dfg.Op.Lt [ "a"; "b" ];
        ("t", Dfg.Op.Add, [ "a"; "b" ], [ ("c", true) ]);
        ("u", Dfg.Op.Neg, [ "t" ], consumer_guards);
      ]
  in
  let msg = Helpers.check_err "other branch" (mk [ ("c", false) ]) in
  Alcotest.(check bool) "scoping error named" true
    (Helpers.contains ~sub:"guard scoping" (Diag.message msg));
  ignore (Helpers.check_err "unconditional consumer" (mk []));
  (* Same arm is fine; a more deeply guarded consumer is fine too. *)
  (match mk [ ("c", true) ] with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "same-arm read rejected: %s" (Diag.to_string e))

let sinks () =
  let g = Helpers.diamond () in
  let s = Option.get (Dfg.Graph.find g "s") in
  Alcotest.(check (list int)) "single sink" [ s.Dfg.Graph.id ]
    (Dfg.Graph.sinks g)

let count_by_class () =
  let g = Helpers.diamond () in
  Alcotest.(check (list (pair string int)))
    "counts" [ ("*", 2); ("+", 1) ]
    (Dfg.Graph.count_by_class g)

let mutually_exclusive () =
  let g = Workloads.Classic.cond_example () in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  Alcotest.(check bool) "t1/t2 exclusive" true
    (Dfg.Graph.mutually_exclusive g (id "t1") (id "t2"));
  Alcotest.(check bool) "t1/t3 same arm" false
    (Dfg.Graph.mutually_exclusive g (id "t1") (id "t3"));
  Alcotest.(check bool) "t1/c1 unguarded" false
    (Dfg.Graph.mutually_exclusive g (id "t1") (id "c1"));
  Alcotest.(check bool) "not self-exclusive" false
    (Dfg.Graph.mutually_exclusive g (id "t1") (id "t1"))

let node_out_of_range () =
  let g = Helpers.diamond () in
  Alcotest.check_raises "id 99"
    (Invalid_argument "Graph.node: id 99 out of range") (fun () ->
      ignore (Dfg.Graph.node g 99))

let topo_is_linear_extension =
  Helpers.qcheck ~count:60 "topological order puts preds first"
    (Helpers.dag_gen ())
    (fun g ->
      let order = Dfg.Graph.topological g in
      let position = Hashtbl.create 32 in
      List.iteri (fun idx i -> Hashtbl.replace position i idx) order;
      List.for_all
        (fun nd ->
          let i = nd.Dfg.Graph.id in
          List.for_all
            (fun p -> Hashtbl.find position p < Hashtbl.find position i)
            (Dfg.Graph.preds g i))
        (Dfg.Graph.nodes g))

let preds_succs_inverse =
  Helpers.qcheck ~count:60 "preds and succs are inverse relations"
    (Helpers.dag_gen ())
    (fun g ->
      List.for_all
        (fun nd ->
          let i = nd.Dfg.Graph.id in
          List.for_all (fun p -> List.mem i (Dfg.Graph.succs g p))
            (Dfg.Graph.preds g i)
          && List.for_all (fun s -> List.mem i (Dfg.Graph.preds g s))
               (Dfg.Graph.succs g i))
        (Dfg.Graph.nodes g))

let suite =
  [
    test "builder accepts a valid graph" build_ok;
    test "duplicate names rejected" duplicate_name;
    test "node shadowing an input rejected" input_clash;
    test "unknown operand rejected with name" unknown_ref;
    test "arity mismatch rejected" arity_mismatch;
    test "cycle detected" cycle_detected;
    test "self-cycle detected" self_cycle;
    test "unknown guard rejected" unknown_guard;
    test "preds and succs" preds_succs;
    test "guard condition is a predecessor" guard_is_pred;
    test "cross-branch reads rejected" cross_branch_read_rejected;
    test "sinks" sinks;
    test "count_by_class in appearance order" count_by_class;
    test "mutual exclusion from guards" mutually_exclusive;
    test "node id range checked" node_out_of_range;
    topo_is_linear_extension;
    preds_succs_inverse;
  ]
