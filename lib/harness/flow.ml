type engine = Mfsa | Mfs | List_sched
type constr = Time of int | Resource of (string * int) list

let constr ~cs ~limits = if limits = [] then Time cs else Resource limits

let pre (p : Problem.t) = function
  | Time t -> Analysis.Runner.pre_timed ~cs:(Problem.cs p t) p.config p.graph
  | Resource limits -> Analysis.Runner.pre_timed ~limits p.config p.graph

type design = {
  schedule : Core.Schedule.t;
  trace : Core.Liapunov.Trace.t option;
  datapath : Rtl.Datapath.t;
  cost : Rtl.Cost.breakdown;
}

let mfsa ?style ?weights (p : Problem.t) = function
  | Time t ->
      Core.Mfsa.run ~config:p.config ?style ?weights ~library:p.library
        ~cs:(Problem.cs p t) p.graph
  | Resource limits ->
      Core.Mfsa.run_resource ~config:p.config ?style ?weights
        ~library:p.library ~limits p.graph

let rec schedule (p : Problem.t) engine c =
  let config = p.config and g = p.graph in
  match (engine, c) with
  | Mfsa, _ ->
      Result.map (fun d -> (d.schedule, d.trace)) (synthesize p engine c)
  | Mfs, _ ->
      let spec =
        match c with
        | Time t -> Core.Mfs.Time { cs = Problem.cs p t }
        | Resource limits -> Core.Mfs.Resource { limits }
      in
      Result.map
        (fun o -> (o.Core.Mfs.schedule, Some o.Core.Mfs.trace))
        (Core.Mfs.run ~config g spec)
  | List_sched, _ ->
      Result.map
        (fun s -> (s, None))
        (match c with
        | Time t -> Baselines.List_sched.time ~config g ~cs:(Problem.cs p t)
        | Resource limits -> Baselines.List_sched.resource ~config g ~limits)

(* MFSA prices its own binding at the full word; width-aware problems
   re-price it at the inferred widths, as they price the column
   binding of the other engines. *)
and synthesize ?style ?weights (p : Problem.t) engine c =
  let widths = Problem.widths p in
  let price dp = Rtl.Cost.of_datapath ?widths p.library dp in
  match engine with
  | Mfsa ->
      Result.map
        (fun (o : Core.Mfsa.outcome) ->
          {
            schedule = o.schedule;
            trace = None;
            datapath = o.datapath;
            cost = (if Option.is_none widths then o.cost else price o.datapath);
          })
        (mfsa ?style ?weights p c)
  | Mfs | List_sched ->
      Result.bind (schedule p engine c) (fun (s, trace) ->
          Result.map
            (fun dp -> { schedule = s; trace; datapath = dp; cost = price dp })
            (Problem.colbind_datapath p.library p.config p.graph s))

let check ?delay ~style2 (p : Problem.t) dp =
  Rtl.Check.datapath ~style2 ~share_mutex:p.config.Core.Config.share_mutex
    ~steps_overlap:
      (Core.Grid.steps_overlap
         ~latency:p.config.Core.Config.functional_latency)
    dp
    ~delay:(Option.value delay ~default:(Problem.delay p))

let post_rtl ?delay (p : Problem.t) dp ctrl =
  Analysis.Runner.post_rtl ~share_mutex:p.config.Core.Config.share_mutex
    ?latency:p.config.Core.Config.functional_latency dp ctrl
    ~delay:(Option.value delay ~default:(Problem.delay p))

let simulate ?runs p dp ctrl =
  ( Sim.Equiv.check_random ?runs dp ctrl,
    Option.map
      (fun widths -> Sim.Equiv.check_narrowing ?runs ~widths dp ctrl)
      (Problem.widths p) )
