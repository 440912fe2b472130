type library_variant = Default | Two_cycle | Pipelined

let library_of_flags ~two_cycle ~pipelined =
  if pipelined then Pipelined else if two_cycle then Two_cycle else Default

type t = {
  graph : Dfg.Graph.t;
  library : Celllib.Library.t;
  config : Core.Config.t;
  facts : Analysis.Ranges.t option;
}

let make ?(library = Default) ?clock ?latency ?ports ?(widths = false) graph =
  let base = Celllib.Ncr.for_graph graph in
  let library =
    match library with
    | Default -> base
    | Two_cycle -> Celllib.Ncr.two_cycle_multiplier base
    | Pipelined -> Celllib.Ncr.pipelined_multiplier base
  in
  (* Width-aware problems compute the range facts once: they feed the
     chaining probes (per-node delays), the cost model and the
     narrowing-safety simulation. *)
  let facts = if widths then Some (Analysis.Ranges.analyze graph) else None in
  let config =
    {
      (Core.Config.of_library library) with
      Core.Config.chaining =
        Option.map
          (fun clock ->
            { Core.Config.prop_delay = library.Celllib.Library.prop_delay;
              clock })
          clock;
      functional_latency = latency;
      mem_ports = ports;
      node_delay =
        (match facts with
        | None -> []
        | Some f -> Analysis.Ranges.node_delays library graph f);
    }
  in
  { graph; library; config; facts }

let cs p requested =
  if requested <= 0 then Core.Timeframe.min_cs p.config p.graph else requested

let delay p i = Core.Config.delay p.config (Dfg.Graph.node p.graph i).Dfg.Graph.kind

let widths p = Option.map (fun f name -> Analysis.Ranges.width_of f name) p.facts

(* Every (kind, column) pair of the schedule becomes one single-function
   ALU instance; [fu_class] is injective per kind, so each group is
   kind-homogeneous. Memory accesses are left out: [Rtl.Datapath.elaborate]
   binds them to their bank's ports itself. *)
let colbind_datapath lib config g s =
  let col =
    match s.Core.Schedule.col with
    | Some c -> c
    | None -> Baselines.Colbind.columns config g ~start:s.Core.Schedule.start
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun nd ->
      if not (Dfg.Op.is_mem nd.Dfg.Graph.kind) then begin
        let key = (nd.Dfg.Graph.kind, col.(nd.Dfg.Graph.id)) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key (nd.Dfg.Graph.id :: prev)
      end)
    (Dfg.Graph.nodes g);
  let assignments =
    Hashtbl.fold
      (fun (kind, _) ids acc ->
        (Celllib.Library.single_function lib kind, List.rev ids) :: acc)
      groups []
  in
  let delay i = Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind in
  Rtl.Datapath.elaborate ?latency:config.Core.Config.functional_latency g
    ~start:s.Core.Schedule.start ~delay ~cs:s.Core.Schedule.cs ~assignments
