(* Typed failures, pinned: one failing input per fallible library entry
   point, with the code and category it reports. The category decides what
   a caller does next (fall back, cache the point as infeasible, exit 4 or
   5), so it is set where the failure is detected and checked here.

   [Dfg.Mutex.merge_shared], [Dfg.Cse.run] and
   [Harness.Problem.colbind_datapath] have no row: they rebuild or bind a
   graph that the builder already accepted, and no input makes them fail.
   Their failures would be the builder's or [Rtl.Datapath.elaborate]'s,
   which have rows. *)

let test name f = Alcotest.test_case name `Quick f

let synthesise g =
  let library = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library ~cs:(Dfg.Bounds.critical_path g + 1) g)
  in
  let dp = o.Core.Mfsa.datapath in
  (dp, Rtl.Controller.make dp ~delay:(fun _ -> 1))

(* Every operation takes 60 ns against a 50 ns clock. *)
let prop_delay _ = 60.
let clock = 50.

let loop_tree budget =
  {
    Core.Loops.body = Helpers.chain4 ();
    budget;
    children =
      [ ("c2",
         { Core.Loops.body = Helpers.diamond (); budget = 2; children = [] }) ];
  }

(* (entry point, failing call, code, category) *)
let rows :
    (string * (unit -> (unit, Diag.t) result) * string * Diag.category) list =
  let drop r = Result.map ignore r in
  let diamond = Helpers.diamond and op = Helpers.op in
  [
    ( "Graph.Builder.build",
      (fun () ->
        let b = Dfg.Graph.Builder.create () in
        Dfg.Graph.Builder.add_op b ~name:"a" Dfg.Op.Neg [ "b" ];
        Dfg.Graph.Builder.add_op b ~name:"b" Dfg.Op.Neg [ "a" ];
        drop (Dfg.Graph.Builder.build b)),
      "graph.invalid", Diag.Input );
    ( "Graph.of_ops",
      (fun () ->
        drop
          (Dfg.Graph.of_ops ~inputs:[ "x" ]
             [ op "n" Dfg.Op.Neg [ "x" ]; op "n" Dfg.Op.Neg [ "x" ] ])),
      "graph.invalid", Diag.Input );
    ( "Bounds.compute",
      (fun () -> drop (Dfg.Bounds.compute (diamond ()) ~cs:0)),
      "bounds.budget", Diag.Infeasible );
    ( "Bounds.compute_chained",
      (fun () ->
        drop
          (Dfg.Bounds.compute_chained ~prop_delay ~clock (diamond ()) ~cs:4)),
      "bounds.chain-clock", Diag.Infeasible );
    ( "Bounds.chained_critical_path",
      (fun () ->
        drop
          (Dfg.Bounds.chained_critical_path ~prop_delay ~clock (diamond ()))),
      "bounds.chain-clock", Diag.Infeasible );
    ( "Timeframe.bounds",
      (fun () ->
        drop
          (Core.Timeframe.bounds Core.Config.default (Helpers.chain4 ()) ~cs:3)),
      "bounds.infeasible-budget", Diag.Infeasible );
    ( "Loops.add_iteration_control",
      (fun () ->
        drop
          (Core.Loops.add_iteration_control (diamond ()) ~counter:"m1"
             ~bound:"n")),
      "loop.control-clash", Diag.Input );
    ( "Loops.expand_placeholder",
      (fun () ->
        drop
          (Core.Loops.expand_placeholder (diamond ()) ~name:"nope" ~cycles:2)),
      "loop.placeholder", Diag.Input );
    ( "Loops.schedule_nested",
      (fun () -> drop (Core.Loops.schedule_nested (loop_tree 4))),
      "mfs.infeasible-budget", Diag.Infeasible );
    ( "Loops.allocate_nested",
      (fun () ->
        let library = Celllib.Ncr.for_graph (Helpers.diamond ()) in
        drop (Core.Loops.allocate_nested ~library (loop_tree 4))),
      "mfsa.infeasible-budget", Diag.Infeasible );
    ( "Datapath.elaborate",
      (fun () ->
        drop
          (Rtl.Datapath.elaborate (diamond ()) ~start:[| 1; 1; 2 |]
             ~delay:(fun _ -> 1) ~cs:2
             ~assignments:
               [ (Celllib.Library.make_alu [ Dfg.Op.Mul ], [ 0; 1 ]) ])),
      "datapath.invalid", Diag.Internal );
    ( "Eval.run",
      (fun () -> drop (Sim.Eval.run (diamond ()) [ ("a", 1) ])),
      "sim.golden", Diag.Input );
    ( "Machine.run",
      (fun () ->
        let dp, ctrl = synthesise (diamond ()) in
        drop (Sim.Machine.run dp ctrl ~env:[])),
      "sim.machine", Diag.Internal );
    ( "Iterate.run",
      (fun () ->
        let dp, ctrl = synthesise (diamond ()) in
        drop
          (Sim.Iterate.run dp ctrl ~feedback:[ ("nope", "a") ] ~consts:[]
             ~init:[ ("a", 0) ] ~stream:(fun _ -> []) ~iterations:1)),
      "sim.feedback", Diag.Input );
    ( "Iterate.reference",
      (fun () ->
        drop
          (Sim.Iterate.reference (diamond ()) ~feedback:[] ~consts:[] ~init:[]
             ~stream:(fun _ -> []) ~iterations:1)),
      "sim.golden", Diag.Input );
    ( "Iterate.check",
      (fun () ->
        let dp, ctrl = synthesise (diamond ()) in
        Sim.Iterate.check dp ctrl ~feedback:[ ("s", "nope") ] ~consts:[]
          ~init:[] ~stream:(fun _ -> []) ~iterations:1),
      "sim.feedback", Diag.Input );
    ( "Vcd.write_file",
      (fun () ->
        let dp, ctrl = synthesise (diamond ()) in
        let env = [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
        let r = Helpers.check_ok "machine" (Sim.Machine.run dp ctrl ~env) in
        Sim.Vcd.write_file ~path:Filename.current_dir_name dp r),
      "vcd.write", Diag.Input );
    ( "List_sched.time",
      (fun () -> drop (Baselines.List_sched.time (Helpers.chain4 ()) ~cs:3)),
      "bounds.infeasible-budget", Diag.Infeasible );
    ( "List_sched.resource",
      (fun () ->
        drop (Baselines.List_sched.resource (diamond ()) ~limits:[ ("*", 0) ])),
      "list.units", Diag.Infeasible );
    ( "Fds.run",
      (fun () ->
        drop (Baselines.Fds.run (Helpers.graph_exn ~inputs:[ "x" ] []) ~cs:1)),
      "fds.empty-graph", Diag.Infeasible );
    ( "Annealing.run",
      (fun () -> drop (Baselines.Annealing.run (Helpers.chain4 ()) ~cs:2)),
      "bounds.infeasible-budget", Diag.Infeasible );
    ( "Exact.run",
      (fun () ->
        let g = Workloads.Classic.diffeq () in
        drop
          (Baselines.Exact.run ~node_budget:1 g
             ~cs:(Dfg.Bounds.critical_path g + 2))),
      "exact.node-budget", Diag.Infeasible );
    ( "Exact.min_units",
      (fun () -> drop (Baselines.Exact.min_units (diamond ()) ~cs:1)),
      "bounds.infeasible-budget", Diag.Infeasible );
    ( "Fuzz.graph_of_case",
      (fun () ->
        drop
          (Harness.Fuzz.graph_of_case
             {
               Harness.Fuzz.inputs = [ "x" ];
               rows = [ ("n", Dfg.Op.Add, [ "x"; "zz" ], []) ];
               options = Harness.Driver.default_options;
             })),
      "graph.invalid", Diag.Input );
  ]

let check_row (name, f, code, category) =
  test name (fun () ->
      let d = Helpers.check_err name (f ()) in
      Alcotest.(check string) (name ^ " code") code d.Diag.code;
      Alcotest.(check string) (name ^ " category")
        (Diag.category_name category)
        (Diag.category_name d.Diag.category))

(* A level's failure keeps its code and category; the walk only prefixes
   the loop path to the message. *)
let loop_path_prefix () =
  let d =
    Helpers.check_err "tight parent" (Core.Loops.schedule_nested (loop_tree 4))
  in
  Alcotest.(check bool) "path prefix" true
    (String.starts_with ~prefix:"loop top: " (Diag.message d))

let suite =
  List.map check_row rows @ [ test "loop walk: path prefix" loop_path_prefix ]
