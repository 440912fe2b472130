(* Quickstart: schedule and allocate the HAL differential-equation solver
   (the paper's running example class) in a dozen lines.

     dune exec examples/quickstart.exe

   Flow: build a DFG -> MFS balanced schedule -> MFSA RTL allocation ->
   FSM controller -> cycle-accurate check against the golden model. *)

let () =
  (* The behaviour: one Euler step of y'' + 3xy' + 3y = 0. *)
  let graph = Workloads.Classic.diffeq () in
  Format.printf "behaviour:@.%a@." Dfg.Graph.pp graph;

  (* 1. Time-constrained MFS: a balanced schedule in 4 control steps. *)
  let outcome =
    match Core.Mfs.run graph (Core.Mfs.Time { cs = 4 }) with
    | Ok o -> o
    | Error e -> failwith (Diag.message e)
  in
  Format.printf "MFS schedule:@.%a@." Core.Schedule.pp outcome.Core.Mfs.schedule;
  Format.printf "Liapunov trajectory monotone: %b@.@."
    (Core.Liapunov.Trace.non_increasing outcome.Core.Mfs.trace);

  (* 2. MFSA: schedule + ALU/register/mux allocation in one pass. *)
  let library = Celllib.Ncr.for_graph graph in
  let mfsa =
    match Core.Mfsa.run ~library ~cs:4 graph with
    | Ok o -> o
    | Error e -> failwith (Diag.message e)
  in
  Format.printf "RTL datapath:@.%a@." Rtl.Datapath.pp mfsa.Core.Mfsa.datapath;
  Format.printf "%a@.@." Rtl.Cost.pp mfsa.Core.Mfsa.cost;

  (* 3. Control path + end-to-end execution on concrete inputs. *)
  let delay i =
    Core.Config.delay mfsa.Core.Mfsa.schedule.Core.Schedule.config
      (Dfg.Graph.node graph i).Dfg.Graph.kind
  in
  let controller = Rtl.Controller.make mfsa.Core.Mfsa.datapath ~delay in
  let env =
    [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 10); ("three", 3) ]
  in
  (match Sim.Machine.run mfsa.Core.Mfsa.datapath controller ~env with
  | Ok r ->
      let get name = List.assoc name r.Sim.Machine.values in
      Format.printf
        "simulated on x=2 y=5 u=3 dx=1: x1=%d y1=%d u1=%d (x1 < a) = %d@."
        (get "a1") (get "a2") (get "s2") (get "c1")
  | Error e -> failwith (Diag.message e));
  match Sim.Equiv.check_random mfsa.Core.Mfsa.datapath controller with
  | Ok () -> Format.printf "golden-model equivalence: ok (20 random runs)@."
  | Error e -> failwith (Diag.message e)
