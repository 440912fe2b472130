(* Design style 2 (paper §4.2): RTL without self loops around ALUs, the
   structure SYNTEST needs for self-testable datapaths. An operation never
   shares an ALU with one of its DFG predecessors/successors, so no ALU
   output can feed its own input through a register.

     dune exec examples/selftest_datapath.exe *)

let synthesise style g cs =
  let library = Celllib.Ncr.for_graph g in
  match Core.Mfsa.run ~style ~library ~cs g with
  | Ok o -> o
  | Error e -> failwith (Diag.message e)

let describe label (o : Core.Mfsa.outcome) =
  Printf.printf "%s\n  ALUs: %s\n  cost: %.0f um2, %d REG, %d MUX (%d inputs)\n"
    label
    (Rtl.Cost.alu_config o.Core.Mfsa.datapath)
    o.Core.Mfsa.cost.Rtl.Cost.total o.Core.Mfsa.cost.Rtl.Cost.n_regs
    o.Core.Mfsa.cost.Rtl.Cost.n_mux o.Core.Mfsa.cost.Rtl.Cost.n_mux_inputs;
  let loops = Rtl.Datapath.self_loop_alus o.Core.Mfsa.datapath in
  Printf.printf "  ALUs with self loops: %s\n"
    (if loops = [] then "none"
     else String.concat ", " (List.map string_of_int loops))

let () =
  let g = Workloads.Classic.ewf () in
  let cs = Dfg.Bounds.critical_path g + 1 in
  Printf.printf "elliptic wave filter, %d ops, T=%d\n\n"
    (Dfg.Graph.num_nodes g) cs;
  let s1 = synthesise Core.Mfsa.Unrestricted g cs in
  let s2 = synthesise Core.Mfsa.No_self_loop g cs in
  describe "style 1 (unrestricted):" s1;
  describe "style 2 (self-testable, no ALU self loop):" s2;
  let c1 = s1.Core.Mfsa.cost.Rtl.Cost.total
  and c2 = s2.Core.Mfsa.cost.Rtl.Cost.total in
  Printf.printf "\ntestability overhead: %+.1f%% (paper band: 2-11%%)\n"
    (100. *. (c2 -. c1) /. c1);
  (* Both styles must still compute the behaviour. *)
  List.iter
    (fun (label, o) ->
      let delay i =
        Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
          (Dfg.Graph.node g i).Dfg.Graph.kind
      in
      let ctrl = Rtl.Controller.make o.Core.Mfsa.datapath ~delay in
      match Sim.Equiv.check_random o.Core.Mfsa.datapath ctrl with
      | Ok () -> Printf.printf "%s: functional check ok\n" label
      | Error e -> failwith (label ^ ": " ^ Diag.message e))
    [ ("style 1", s1); ("style 2", s2) ]
