(* End-to-end flows: text -> graph -> schedule -> allocation -> controller ->
   cycle-accurate simulation, across the paper's feature matrix. *)

let test name f = Alcotest.test_case name `Quick f

let full_flow ?(style = Core.Mfsa.Unrestricted) ?config ?lib g ~cs =
  let library = match lib with Some l -> l | None -> Celllib.Ncr.for_graph g in
  let config =
    match config with Some c -> c | None -> Core.Config.of_library library
  in
  let o =
    Helpers.check_okd "mfsa" (Core.Mfsa.run ~config ~style ~library ~cs g)
  in
  Helpers.check_schedule o.Core.Mfsa.schedule;
  let delay i =
    Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  (match
     Rtl.Check.datapath
       ~style2:(style = Core.Mfsa.No_self_loop)
       o.Core.Mfsa.datapath ~delay
   with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "datapath: %s" (String.concat "; " (List.map Diag.to_string errs)));
  let ctrl =
    Helpers.check_ok "controller"
      (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay)
  in
  (match Sim.Equiv.check_random ~runs:15 o.Core.Mfsa.datapath ctrl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "equivalence: %s" (Diag.to_string e));
  o

let from_text_source () =
  let src =
    "# behavioural input\n\
     input a b c d\n\
     p = * a b\n\
     q = * c d\n\
     r = + p q\n\
     s = - r a\n"
  in
  let g = Helpers.check_okd "parse" (Dfg.Parser.parse src) in
  let o = full_flow g ~cs:4 in
  Alcotest.(check bool) "cost positive" true (o.Core.Mfsa.cost.Rtl.Cost.total > 0.)

let every_classic_both_styles () =
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      ignore (full_flow g ~cs);
      ignore (full_flow ~style:Core.Mfsa.No_self_loop g ~cs);
      ignore name)
    (Workloads.Classic.all ()
    @ [ ("biquad", Workloads.Classic.biquad ());
        ("facet", Workloads.Classic.facet ());
        ("diffeq", Workloads.Classic.diffeq ()) ])

let two_cycle_flow () =
  let g = Workloads.Classic.dct8 () in
  let lib = Celllib.Ncr.two_cycle_multiplier (Celllib.Ncr.for_graph g) in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g + 1 in
  ignore (full_flow ~config ~lib g ~cs)

let pipelined_flow () =
  let g = Workloads.Classic.ewf () in
  let lib = Celllib.Ncr.pipelined_multiplier (Celllib.Ncr.for_graph g) in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g in
  ignore (full_flow ~config ~lib g ~cs)

let guarded_flow () =
  let g = Workloads.Classic.cond_example () in
  ignore (full_flow g ~cs:(Dfg.Bounds.critical_path g))

let merged_guarded_flow () =
  let g =
    Helpers.check_ok "merge"
      (Dfg.Mutex.merge_shared (Workloads.Classic.cond_example ()))
  in
  ignore (full_flow g ~cs:(Dfg.Bounds.critical_path g + 1))

let mfs_then_simulate () =
  (* MFS binding (single-function units) run through elaboration and the
     machine: build assignments from the schedule's columns. *)
  let g = Workloads.Classic.diffeq () in
  let o = Helpers.mfs_time g 4 in
  let s = o.Core.Mfs.schedule in
  let col = Option.get s.Core.Schedule.col in
  let lib = Celllib.Ncr.for_graph g in
  let by_unit = Hashtbl.create 8 in
  List.iter
    (fun nd ->
      let key = (Dfg.Op.fu_class nd.Dfg.Graph.kind, col.(nd.Dfg.Graph.id)) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_unit key) in
      Hashtbl.replace by_unit key (nd.Dfg.Graph.id :: cur))
    (Dfg.Graph.nodes g);
  let assignments =
    Hashtbl.fold
      (fun (klass, _) ops acc ->
        let kind = Option.get (Dfg.Op.of_string klass) in
        (Celllib.Library.single_function lib kind, ops) :: acc)
      by_unit []
  in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start:s.Core.Schedule.start
         ~delay:(fun _ -> 1) ~cs:4 ~assignments)
  in
  let ctrl =
    Helpers.check_ok "controller" (Rtl.Controller.generate dp ~delay:(fun _ -> 1))
  in
  match Sim.Equiv.check_random ~runs:15 dp ctrl with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let verilog_for_all_classics () =
  List.iter
    (fun (name, g) ->
      let lib = Celllib.Ncr.for_graph g in
      let o =
        Helpers.check_okd "mfsa"
          (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g + 1) g)
      in
      let ctrl =
        Helpers.check_ok "controller"
          (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay:(fun _ -> 1))
      in
      let src = Rtl.Verilog.emit ~module_name:name o.Core.Mfsa.datapath ctrl in
      Alcotest.(check bool) (name ^ " verilog") true
        (Helpers.contains ~sub:"endmodule" src))
    (Workloads.Classic.all ())

let file_round_trip () =
  let path = Filename.temp_file "mfs" ".dfg" in
  let g = Workloads.Classic.tseng () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Dfg.Parser.to_source g));
  let g' = Helpers.check_okd "parse_file" (Dfg.Parser.parse_file path) in
  Alcotest.(check int) "same ops" (Dfg.Graph.num_nodes g) (Dfg.Graph.num_nodes g');
  ignore (full_flow g' ~cs:5);
  Sys.remove path

let guarded_random_flow =
  Helpers.qcheck ~count:25 "guarded random DAGs synthesise and compute"
    (Helpers.guarded_dag_gen ())
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
          Core.Schedule.check_diags o.Core.Mfsa.schedule = []
          && Rtl.Check.datapath o.Core.Mfsa.datapath ~delay = Ok ()
          &&
          match Rtl.Controller.generate o.Core.Mfsa.datapath ~delay with
          | Error _ -> false
          | Ok ctrl ->
              Sim.Equiv.check_random ~runs:6 o.Core.Mfsa.datapath ctrl = Ok ()))

let guarded_random_merge_flow =
  Helpers.qcheck ~count:20 "branch merging preserves guarded random DAGs"
    (Helpers.guarded_dag_gen ())
    (fun g ->
      match Dfg.Mutex.merge_shared g with
      | Error _ -> false
      | Ok g' -> (
          let lib = Celllib.Ncr.for_graph g' in
          let cs = Dfg.Bounds.critical_path g' + 1 in
          match Core.Mfsa.run ~library:lib ~cs g' with
          | Error _ -> false
          | Ok o -> (
              let delay _ = 1 in
              match Rtl.Controller.generate o.Core.Mfsa.datapath ~delay with
              | Error _ -> false
              | Ok ctrl ->
                  Sim.Equiv.check_random ~runs:5 o.Core.Mfsa.datapath ctrl
                  = Ok ())))

let wide_kind_flow =
  Helpers.qcheck ~count:25 "wide-alphabet random DAGs synthesise and compute"
    (Helpers.wide_dag_gen ())
    (fun g ->
      let lib = Celllib.Ncr.for_graph g in
      let cs = Dfg.Bounds.critical_path g + 1 in
      match Core.Mfsa.run ~library:lib ~cs g with
      | Error _ -> false
      | Ok o -> (
          let delay _ = 1 in
          Core.Schedule.check_diags o.Core.Mfsa.schedule = []
          &&
          match Rtl.Controller.generate o.Core.Mfsa.datapath ~delay with
          | Error _ -> false
          | Ok ctrl ->
              Sim.Equiv.check_random ~runs:5 o.Core.Mfsa.datapath ctrl = Ok ()))

(* Deterministic stress sweep: the full flow over a seed grid, mirroring
   the exploratory sweep that originally caught the cross-branch-read bug. *)
let stress_sweep () =
  for seed = 0 to 59 do
    let ops = 4 + (seed mod 13) in
    let g =
      Workloads.Random_dag.generate_exn
        ~spec:
          { Workloads.Random_dag.default with
            Workloads.Random_dag.ops; guard_prob = 0.3 }
        ~seed ()
    in
    let lib = Celllib.Ncr.for_graph g in
    let cs = Dfg.Bounds.critical_path g + 1 in
    let o = Helpers.check_okd "mfsa" (Core.Mfsa.run ~library:lib ~cs g) in
    Helpers.check_schedule o.Core.Mfsa.schedule;
    let ctrl =
      Helpers.check_ok "ctrl"
        (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay:(fun _ -> 1))
    in
    match Sim.Equiv.check_random ~runs:4 o.Core.Mfsa.datapath ctrl with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed (Diag.to_string e)
  done

let suite =
  [
    test "text source to simulated RTL" from_text_source;
    guarded_random_flow;
    guarded_random_merge_flow;
    wide_kind_flow;
    test "deterministic stress sweep (60 seeds)" stress_sweep;
    test "every classic, both design styles" every_classic_both_styles;
    test "two-cycle multiplier flow" two_cycle_flow;
    test "pipelined multiplier flow" pipelined_flow;
    test "guarded conditional flow" guarded_flow;
    test "merged conditional flow" merged_guarded_flow;
    test "MFS schedule through elaboration and simulation" mfs_then_simulate;
    test "Verilog for every classic" verilog_for_all_classics;
    test "file round trip" file_round_trip;
  ]
